package tensor

import "testing"

// TestArenaReuseAndZeroing pins NewRaw's buffer contract: fresh buffers
// come from the allocator zero-filled, recycled ones are handed back as
// they were left — no clear — which is why callers must overwrite them.
func TestArenaReuseAndZeroing(t *testing.T) {
	a := NewArena()
	x := a.NewRaw(2, 3)
	if x.Len() != 6 || x.Rank() != 2 {
		t.Fatalf("arena tensor shape %v len %d", x.Shape, x.Len())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("fresh buffer not zero at %d: %v", i, v)
		}
		x.Data[i] = float64(i + 1)
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d, want 1", a.Live())
	}
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("Live after Reset = %d", a.Live())
	}

	// Same element count, different shape: buffer is reused as left.
	y := a.NewRaw(6)
	if &y.Data[0] != &x.Data[0] {
		t.Error("arena did not reuse the recycled buffer")
	}
	if y.Rank() != 1 || y.Dim(0) != 6 {
		t.Errorf("reused tensor shape %v, want [6]", y.Shape)
	}
	for i, v := range y.Data {
		if v != float64(i+1) {
			t.Fatalf("recycled buffer changed at %d: %v", i, v)
		}
	}

	// A second NewRaw of the same size must hand out a distinct buffer.
	z := a.NewRaw(6)
	if &z.Data[0] == &y.Data[0] {
		t.Error("arena handed the same live buffer out twice")
	}
	if a.Live() != 2 {
		t.Errorf("Live = %d, want 2", a.Live())
	}
}

func TestArenaDistinctSizes(t *testing.T) {
	a := NewArena()
	small := a.NewRaw(4)
	big := a.NewRaw(16)
	a.Reset()
	// Requesting the small size again must not return the big buffer.
	s2 := a.NewRaw(4)
	if &s2.Data[0] == &big.Data[0] {
		t.Error("size buckets mixed up")
	}
	if &s2.Data[0] != &small.Data[0] {
		t.Error("small bucket not reused")
	}
}

func TestArenaNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dimension did not panic")
		}
	}()
	NewArena().NewRaw(2, -1)
}
