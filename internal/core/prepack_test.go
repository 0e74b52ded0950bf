package core

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// TestPrepackDecisionIdentity is the system-level prepack gate: for every
// zoo topology, numeric backend, SIMD setting and batch size, the full
// PolygraphMR decision of the served system — weights packed at compile
// time by PrepareBackends — is exactly DeepEqual to that of systems that
// lower differently: the verified system, whose convolutions take the
// explicit im2col + GEMM route in place of the implicit and direct drivers,
// and, for f64, a system never prepacked, whose scalar-target Winograd
// transforms its filters on every call. Packing reorders storage and loop
// structure, never arithmetic, so there is no tolerance: every field
// including Confidence must be bit-identical.
func TestPrepackDecisionIdentity(t *testing.T) {
	for _, b := range model.Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			for _, backend := range []Backend{BackendF64, BackendF32, BackendInt8} {
				backend := backend
				t.Run(backend.String(), func(t *testing.T) {
					sys, xs := backendSystem(t, b, backend)
					refs := map[string]*System{}
					refs["verified"], _ = backendSystem(t, b, backend)
					refs["verified"].PrepareVerified(true)
					if backend == BackendF64 {
						refs["unpacked"], _ = unpreparedSystem(t, b, backend)
					}
					for _, simd := range []bool{false, true} {
						if simd && !tensor.SIMDAvailable() {
							continue
						}
						prevSIMD := tensor.SetSIMD(simd)
						for _, bsz := range []int{1, 2, 7, 32} {
							served := sys.ClassifyBatch(xs[:bsz])
							for name, ref := range refs {
								if got := ref.ClassifyBatch(xs[:bsz]); !reflect.DeepEqual(served, got) {
									t.Fatalf("simd=%v B=%d: decisions differ between the served and the %s system:\nserved: %+v\n%s: %+v",
										simd, bsz, name, served, name, got)
								}
							}
						}
						tensor.SetSIMD(prevSIMD)
					}
					if c := refs["verified"].AbftCounts(); c.Checks == 0 || c.Detected != 0 {
						t.Fatalf("verifier counts %+v, want checks > 0 and no detections", c)
					}
				})
			}
		})
	}
}
