package preprocess

import (
	"fmt"
	"strconv"
	"strings"
)

// ByName resolves a preprocessor from its Name() string. Parameterized
// preprocessors accept an argument, e.g. "Gamma(2)", "Scale(0.8)".
func ByName(name string) (Preprocessor, error) {
	base, arg, hasArg := splitArg(name)
	switch base {
	case "ORG", "Identity", "":
		return Identity{}, nil
	case "FlipX":
		return FlipX{}, nil
	case "FlipY":
		return FlipY{}, nil
	case "Hist":
		return Hist{}, nil
	case "AdHist":
		return AdHist{}, nil
	case "ConNorm":
		return ConNorm{}, nil
	case "ImAdj":
		return ImAdj{}, nil
	case "Gamma":
		g := 2.0
		if hasArg {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("preprocess: bad Gamma argument %q: %w", arg, err)
			}
			g = v
		}
		return Gamma{G: g}, nil
	case "Scale":
		p := 0.8
		if hasArg {
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil {
				return nil, fmt.Errorf("preprocess: bad Scale argument %q: %w", arg, err)
			}
			p = v
		}
		return Scale{P: p}, nil
	default:
		return nil, fmt.Errorf("preprocess: unknown preprocessor %q", name)
	}
}

// splitArg parses "Base(arg)" into its parts.
func splitArg(name string) (base, arg string, ok bool) {
	open := strings.IndexByte(name, '(')
	if open < 0 || !strings.HasSuffix(name, ")") {
		return name, "", false
	}
	return name[:open], name[open+1 : len(name)-1], true
}
