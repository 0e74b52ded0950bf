package core

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Reduced-precision execution backends (DESIGN.md §9). Each member can run
// its forward passes at a different numeric precision — float64, float32,
// or int8 quantized — and every precision is the same compiled inference
// graph (nn.Net) at a different element width. This is the executable form
// of the paper's RAMR reduced-precision multiplicity: instead of
// simulating precision loss by rewriting weights, the engine actually runs
// cheaper kernels and banks the time.
//
// Backends are configuration in two steps: set Member.Backend (or let
// polygraph.Options do it), then call PrepareBackends once to compile the
// reduced-precision nets. Until PrepareBackends runs, every member serves
// the float64 net NewSystem compiled, regardless of its Backend field, so
// a half-configured system is never silently wrong — it is just full
// precision.

// Backend selects the numeric execution path of one member.
type Backend int

const (
	// BackendF64 runs the compiled float64 net (nn.Compile[float64]) —
	// bit-identical to the engine's behaviour before backends existed.
	BackendF64 Backend = iota
	// BackendF32 runs the compiled float32 net (nn.Compile32).
	BackendF32
	// BackendInt8 runs the int8 quantized net (nn.CompileInt8); requires a
	// calibration sample at PrepareBackends time.
	BackendInt8
)

// ParseBackend parses a backend name as used by the -backend CLI flags.
// The empty string means the default, BackendF64.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "f64":
		return BackendF64, nil
	case "f32":
		return BackendF32, nil
	case "int8":
		return BackendInt8, nil
	}
	return BackendF64, fmt.Errorf("core: unknown backend %q (want f64, f32 or int8)", s)
}

func (b Backend) String() string {
	switch b {
	case BackendF64:
		return "f64"
	case BackendF32:
		return "f32"
	case BackendInt8:
		return "int8"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// PrepareBackends compiles the net of every member for its Backend: the
// float64 net always (it also serves a policy's f64 override), the f32 or
// int8 net when Backend requests one. calib is a sample of raw system
// inputs (it may be nil when no member uses int8); each int8 member
// calibrates on its OWN preprocessed view of the sample, so activation
// ranges reflect what that member's network actually sees. Members already
// prepared are recompiled — PrepareBackends is idempotent and must be
// called again after retraining or backend reassignment: the f64 net
// shares the layers' convolution weights but folds each normalization's
// running variance and packs each Dense layer's weights at compile time,
// and the reduced-precision nets copy everything. A network the compiler refuses (one with an ActivationHook)
// is an error naming the member, on every backend. Call it before
// EnableCache so the fingerprint covers the final backend schedule.
func (s *System) PrepareBackends(calib []*tensor.T) error {
	for i := range s.Members {
		m := &s.Members[i]
		if err := m.compileF64(); err != nil {
			return err
		}
		if m.Backend == BackendF64 {
			continue
		}
		if m.Backend == BackendInt8 && len(calib) == 0 {
			return fmt.Errorf("core: member %s uses the int8 backend; PrepareBackends needs a calibration sample", m.Name)
		}
		net, err := m.compile(m.Backend, calib)
		if err != nil {
			return err
		}
		m.net = net
	}
	return nil
}

// PrepareAdaptive compiles the f32 and int8 variants of every member into
// Member.alt, so an attached StagePolicy can override the backend of any
// stage at runtime (int8→f32→f64 precision escalation) without recompiling;
// the f64 variant is the net NewSystem compiled. calib is a sample of raw
// system inputs for int8 calibration; like PrepareBackends, each member
// calibrates on its own preprocessed view. Variants are compiled once and
// kept — PrepareAdaptive is idempotent. The members' configured Backend
// fields (and served nets) are untouched: with a nil policy, or a policy
// that never overrides, the adaptive variants are dead weight, never a
// behaviour change.
func (s *System) PrepareAdaptive(calib []*tensor.T) error {
	if len(calib) == 0 {
		return fmt.Errorf("core: PrepareAdaptive needs a calibration sample for the int8 variants")
	}
	for i := range s.Members {
		m := &s.Members[i]
		for _, be := range []Backend{BackendF32, BackendInt8} {
			if m.alt[be] != nil {
				continue
			}
			net, err := m.compile(be, calib)
			if err != nil {
				return err
			}
			m.alt[be] = net
		}
	}
	return nil
}

// compile compiles the member's net for backend be: nn.Compile at float64
// or float32, or CompileInt8 calibrated on the member's OWN preprocessed
// view of the raw sample calib, so activation ranges reflect what its
// network actually sees. Errors name the member.
func (m *Member) compile(be Backend, calib []*tensor.T) (compiledNet, error) {
	var net compiledNet
	var err error
	switch be {
	case BackendF64:
		net, err = nn.Compile[float64](m.Net)
	case BackendF32:
		net, err = m.Net.Compile32()
	case BackendInt8:
		pre := make([]*tensor.T, len(calib))
		for j, x := range calib {
			pre[j] = m.Pre.Apply(x)
		}
		net, err = m.Net.CompileInt8(pre)
	default:
		err = fmt.Errorf("unknown backend %d", int(be))
	}
	if err != nil {
		return nil, fmt.Errorf("core: member %s: %w", m.Name, err)
	}
	return net, nil
}

// Backends returns the per-member backend schedule in priority order —
// the names the fingerprint and the serving metrics report.
func (s *System) Backends() []string {
	out := make([]string, len(s.Members))
	for i, m := range s.Members {
		out[i] = m.Backend.String()
	}
	return out
}
