package tensor

import (
	"math/rand"
	"sort"
	"testing"
	"unsafe"
)

// arenaSizes revisits sizes out of order, the way the server's batcher
// varies the batch size from call to call.
var arenaSizes = []int{64, 1, 37, 64, 2}

// TestArenaReuseAndZeroing pins NewRaw's buffer contract: a fresh slab
// comes from the allocator zero-filled, and after a Reset the same
// requests get the same memory back as it was left — no clear — which is
// why callers must overwrite it.
func TestArenaReuseAndZeroing(t *testing.T) {
	a := NewArena()
	a.NewRaw(2, 3) // the empty slab overflows; Reset grows it to this call
	a.Reset()

	x := a.NewRaw(2, 3)
	if x.Len() != 6 || x.Rank() != 2 {
		t.Fatalf("arena tensor shape %v len %d", x.Shape, x.Len())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("fresh slab not zero at %d: %v", i, v)
		}
		x.Data[i] = float64(i + 1)
	}
	xd := x.Data
	if a.Live() != 1 {
		t.Fatalf("Live = %d, want 1", a.Live())
	}
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("Live after Reset = %d", a.Live())
	}

	// Same element count, different shape: the memory is reused as left.
	y := a.NewRaw(6)
	if &y.Data[0] != &xd[0] {
		t.Error("arena did not hand the slab out again after Reset")
	}
	if y.Rank() != 1 || y.Dim(0) != 6 {
		t.Errorf("reused tensor shape %v, want [6]", y.Shape)
	}
	for i, v := range y.Data {
		if v != float64(i+1) {
			t.Fatalf("recycled memory changed at %d: %v", i, v)
		}
	}

	// A second live request never shares the first one's memory.
	z := a.NewRaw(6)
	if &z.Data[0] == &y.Data[0] {
		t.Error("arena handed the same live memory out twice")
	}
	if a.Live() != 2 {
		t.Errorf("Live = %d, want 2", a.Live())
	}
}

// TestArenaDistinctSizes: tensors of every size share one region. Live
// tensors are carved front to back, and after a Reset a small request is
// served from the memory a bigger one used.
func TestArenaDistinctSizes(t *testing.T) {
	a := NewArena()
	a.NewRaw(16)
	a.NewRaw(4)
	a.Reset()
	big := a.NewRaw(16)
	small := a.NewRaw(4)
	if &small.Data[0] != &a.data.slab[16] {
		t.Error("second tensor not carved right after the first")
	}
	bigStart := &big.Data[0]
	a.Reset()
	if s2 := a.NewRaw(4); &s2.Data[0] != bigStart {
		t.Error("small request after Reset not served from the front of the slab")
	}
}

// TestArenaRegionZeroAlloc: once the slabs have grown to a call, every
// later call of that size or smaller — in any order of sizes — allocates
// nothing, on Arena and on all three Arena32 regions.
func TestArenaRegionZeroAlloc(t *testing.T) {
	a, a32 := NewArena(), NewArena32()
	cycle := func() {
		for _, n := range arenaSizes {
			a.NewRaw(n, 3)
			a32.NewRaw(3, n)
			a32.Bytes(n)
			a32.Int32s(n)
		}
		a.Reset()
		a32.Reset()
		for _, n := range arenaSizes[1:3] {
			a.NewRaw(n)
			a32.Bytes(2 * n)
		}
		a.Reset()
		a32.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm arena cycle allocates %.1f times, want 0", allocs)
	}
}

// TestArenaSlabHighWater: after every Reset each slab holds exactly the
// largest total any single call has requested (each request rounded up to
// a cache line) — never the sum over calls, whatever mix of sizes came
// before.
func TestArenaSlabHighWater(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	roundUp := func(n, esz int) int { line := cacheLine / esz; return (n + line - 1) / line * line }
	a, a32 := NewArena(), NewArena32()
	var hi [4]int
	for call := 0; call < 200; call++ {
		var tot [4]int
		for r := rng.Intn(8); r >= 0; r-- {
			n := rng.Intn(1 << uint(rng.Intn(12)))
			switch rng.Intn(4) {
			case 0:
				a.NewRaw(n)
				tot[0] += roundUp(n, 8)
			case 1:
				a32.NewRaw(n)
				tot[1] += roundUp(n, 4)
			case 2:
				a32.Bytes(n)
				tot[2] += roundUp(n, 1)
			default:
				a32.Int32s(n)
				tot[3] += roundUp(n, 4)
			}
		}
		a.Reset()
		a32.Reset()
		got := [4]int{len(a.data.slab), len(a32.data.slab), len(a32.bytes.slab), len(a32.ints.slab)}
		for i := range hi {
			hi[i] = max(hi[i], tot[i])
			if got[i] != hi[i] {
				t.Fatalf("call %d region %d: slab %d elements, want the largest call's %d", call, i, got[i], hi[i])
			}
		}
	}
}

// TestArenaLiveBuffersDisjoint: everything live at once is 64-byte
// aligned and pairwise disjoint — whether it came from the slab, from
// overflow past it, or from both in one call — and Live counts the tensors.
func TestArenaLiveBuffersDisjoint(t *testing.T) {
	type span struct{ lo, hi uintptr }
	a, a32 := NewArena(), NewArena32()
	// Round 0 overflows the empty slabs, round 1 doubles every size so it
	// starts in the slab and overflows midway, round 2 fits the slab.
	for round, mult := range []int{1, 2, 1} {
		var spans []span
		add := func(p unsafe.Pointer, bytes int, aligned bool) {
			if !aligned {
				t.Fatalf("round %d: buffer at %p not 64-byte aligned", round, p)
			}
			spans = append(spans, span{uintptr(p), uintptr(p) + uintptr(bytes)})
		}
		for _, n := range arenaSizes {
			n *= mult
			x, x32 := a.NewRaw(n), a32.NewRaw(n)
			by, in := a32.Bytes(n), a32.Int32s(n)
			add(unsafe.Pointer(&x.Data[0]), 8*cap(x.Data), Aligned64(x.Data))
			add(unsafe.Pointer(&x32.Data[0]), 4*cap(x32.Data), Aligned64(x32.Data))
			add(unsafe.Pointer(&by[0]), cap(by), Aligned64(by))
			add(unsafe.Pointer(&in[0]), 4*cap(in), Aligned64(in))
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Fatalf("round %d: live buffers overlap: %#x..%#x and %#x..%#x",
					round, spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
			}
		}
		if a.Live() != len(arenaSizes) || a32.Live() != len(arenaSizes) {
			t.Fatalf("round %d: Live = %d / %d, want %d", round, a.Live(), a32.Live(), len(arenaSizes))
		}
		a.Reset()
		a32.Reset()
		if a.Live() != 0 || a32.Live() != 0 {
			t.Fatalf("round %d: Live after Reset = %d / %d", round, a.Live(), a32.Live())
		}
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
