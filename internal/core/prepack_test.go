package core

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// TestPrepackDecisionIdentity is the system-level prepack gate: for every
// zoo topology, numeric backend and batch size, the full PolygraphMR
// decision of the served system — weights packed at compile time by
// PrepareBackends — is exactly DeepEqual to that of the verified system,
// whose convolutions take the explicit im2col + GEMM route in place of the
// implicit and direct drivers. Packing reorders storage and loop
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
					verified, _ := backendSystem(t, b, backend)
					verified.PrepareVerified(true)
					for _, bsz := range []int{1, 2, 7, 32} {
						served := sys.ClassifyBatch(xs[:bsz])
						if got := verified.ClassifyBatch(xs[:bsz]); !reflect.DeepEqual(served, got) {
							t.Fatalf("B=%d: decisions differ between the served and the verified system:\nserved: %+v\nverified: %+v",
								bsz, served, got)
						}
					}
					if c := verified.AbftCounts(); c.Checks == 0 || c.Detected != 0 {
						t.Fatalf("verifier counts %+v, want checks > 0 and no detections", c)
					}
				})
			}
		})
	}
}
