package polygraph

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreferencedAllowed lists exported declarations under internal/ that no
// identifier in the module names but that are still called: the standard
// library reaches them through an interface it declares. Each entry is
// "<package dir>.<Type.Method or Name>" with the reason it stays.
var unreferencedAllowed = map[string]string{}

// TestNoUnreferencedExports fails on each exported function, method or type
// declared in a non-test file under internal/ whose name no non-test
// identifier elsewhere in the module (benchmark/ included) mentions. The
// scan is by name over go/parser syntax trees, without type checking: a
// name used anywhere counts as a reference to every declaration of that
// name, so the check can miss dead code but never flags live code. Test
// helpers belong in the package's export_test.go, not in the library.
func TestNoUnreferencedExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, name, pos string }
	var decls []decl
	refs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// Declaring a name is not a use of it: skip the names of funcs,
		// types, struct fields, interface methods and receiver types.
		skip := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				skip[dd.Name] = true
				name := dd.Name.Name
				if dd.Recv != nil {
					recv := receiverType(dd.Recv.List[0].Type)
					skip[recv] = true
					name = recv.Name + "." + name
				}
				if internal && dd.Name.IsExported() {
					decls = append(decls, decl{dir + "." + name, dd.Name.Name, fset.Position(dd.Pos()).String()})
				}
			case *ast.GenDecl:
				for _, s := range dd.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						skip[ts.Name] = true
						if internal && ts.Name.IsExported() {
							decls = append(decls, decl{dir + "." + ts.Name.Name, ts.Name.Name, fset.Position(ts.Pos()).String()})
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				markFieldNames(n.Fields, skip)
			case *ast.InterfaceType:
				markFieldNames(n.Methods, skip)
			case *ast.Ident:
				if !skip[n] {
					refs[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/: run from the module root")
	}
	var bad []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if !refs[d.name] && unreferencedAllowed[d.key] == "" {
			bad = append(bad, d.pos+": "+d.key)
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("exported but never referenced outside its declaration: %s", b)
	}
	for key := range unreferencedAllowed {
		if !seen[key] {
			t.Errorf("allowlist entry %q names no declaration", key)
		}
	}
}

// receiverType returns the type name of a method receiver such as T, *T or
// *T[E].
func receiverType(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			panic("unexpected receiver type")
		}
	}
}

func markFieldNames(fl *ast.FieldList, skip map[*ast.Ident]bool) {
	for _, f := range fl.List {
		for _, n := range f.Names {
			skip[n] = true
		}
	}
}
