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

// TestArenaReuseAndZeroing pins Raw's buffer contract: a fresh slab
// comes from the allocator zero-filled, and after a Reset the same
// requests get the same memory back as it was left — no clear — which is
// why callers must overwrite it.
func TestArenaReuseAndZeroing(t *testing.T) {
	a := NewArena()
	Raw[float64](a, 6) // the empty slab overflows; Reset grows it to this call
	a.Reset()

	x := Raw[float64](a, 6)
	if len(x) != 6 || cap(x) != 6 {
		t.Fatalf("arena buffer len %d cap %d, want 6", len(x), cap(x))
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("fresh slab not zero at %d: %v", i, v)
		}
		x[i] = float64(i + 1)
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d, want 1", a.Live())
	}
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("Live after Reset = %d", a.Live())
	}

	// The same request gets the memory back as left.
	y := Raw[float64](a, 6)
	if &y[0] != &x[0] {
		t.Error("arena did not hand the slab out again after Reset")
	}
	for i, v := range y {
		if v != float64(i+1) {
			t.Fatalf("recycled memory changed at %d: %v", i, v)
		}
	}

	// A second live request never shares the first one's memory.
	z := Raw[float64](a, 6)
	if &z[0] == &y[0] {
		t.Error("arena handed the same live memory out twice")
	}
	if a.Live() != 2 {
		t.Errorf("Live = %d, want 2", a.Live())
	}
}

// TestArenaDistinctSizes: buffers of every size share one region. Live
// buffers are carved front to back, and after a Reset a small request is
// served from the memory a bigger one used.
func TestArenaDistinctSizes(t *testing.T) {
	a := NewArena()
	Raw[float64](a, 16)
	Raw[float64](a, 4)
	a.Reset()
	big := Raw[float64](a, 16)
	small := Raw[float64](a, 4)
	if &small[0] != &a.f64.slab[16] {
		t.Error("second buffer not carved right after the first")
	}
	bigStart := &big[0]
	a.Reset()
	if s2 := Raw[float64](a, 4); &s2[0] != bigStart {
		t.Error("small request after Reset not served from the front of the slab")
	}
}

// TestArenaRegionZeroAlloc: once the slabs have grown to a call, every
// later call of that size or smaller — in any order of sizes — allocates
// nothing, on all four regions.
func TestArenaRegionZeroAlloc(t *testing.T) {
	a := NewArena()
	cycle := func() {
		for _, n := range arenaSizes {
			Raw[float64](a, 3*n)
			Raw[float32](a, 3*n)
			Raw[uint8](a, n)
			Raw[int32](a, n)
		}
		a.Reset()
		for _, n := range arenaSizes[1:3] {
			Raw[float64](a, n)
			Raw[uint8](a, 2*n)
		}
		a.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm arena cycle allocates %.1f times, want 0", allocs)
	}
}

// TestArenaSlabHighWater: after every Reset each slab holds exactly the
// largest total any single call has requested (each request rounded up to
// a cache line) — never the sum over calls, whatever mix of sizes came
// before — and a slab no call has drawn from stays empty.
func TestArenaSlabHighWater(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	roundUp := func(n, esz int) int { line := cacheLine / esz; return (n + line - 1) / line * line }
	a := NewArena()
	var hi [4]int
	for call := 0; call < 200; call++ {
		var tot [4]int
		for r := rng.Intn(8); r >= 0; r-- {
			n := rng.Intn(1 << uint(rng.Intn(12)))
			// Region 3 (int32) is drawn only after call 100.
			switch rng.Intn(3 + min(call/100, 1)) {
			case 0:
				Raw[float64](a, n)
				tot[0] += roundUp(n, 8)
			case 1:
				Raw[float32](a, n)
				tot[1] += roundUp(n, 4)
			case 2:
				Raw[uint8](a, n)
				tot[2] += roundUp(n, 1)
			default:
				Raw[int32](a, n)
				tot[3] += roundUp(n, 4)
			}
		}
		a.Reset()
		got := [4]int{SlabLen[float64](a), SlabLen[float32](a), SlabLen[uint8](a), SlabLen[int32](a)}
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
// overflow past it, or from both in one call — and Live counts the buffers.
func TestArenaLiveBuffersDisjoint(t *testing.T) {
	type span struct{ lo, hi uintptr }
	a := NewArena()
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
			x, x32 := Raw[float64](a, n), Raw[float32](a, n)
			by, in := Raw[uint8](a, n), Raw[int32](a, n)
			add(unsafe.Pointer(&x[0]), 8*cap(x), Aligned64(x))
			add(unsafe.Pointer(&x32[0]), 4*cap(x32), Aligned64(x32))
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
		if a.Live() != 4*len(arenaSizes) {
			t.Fatalf("round %d: Live = %d, want %d", round, a.Live(), 4*len(arenaSizes))
		}
		a.Reset()
		if a.Live() != 0 {
			t.Fatalf("round %d: Live after Reset = %d", round, a.Live())
		}
	}
}

func TestArenaNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative length did not panic")
		}
	}()
	Raw[float64](NewArena(), -1)
}
