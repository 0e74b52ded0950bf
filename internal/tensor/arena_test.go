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
// largest total any single call has had drawn at once (each request
// rounded up to a cache line) — never the sum over calls, whatever mix of
// sizes came before — and a slab no call has drawn from stays empty. Calls
// also draw kernel-style scratch between a Mark and a Release, nested at
// random: a release hands its draws back, so the running total falls, but
// the slab still grows to the peak the total reached before it fell.
func TestArenaSlabHighWater(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	roundUp := func(n, esz int) int { line := cacheLine / esz; return (n + line - 1) / line * line }
	a := NewArena()
	var hi [5]int
	for call := 0; call < 300; call++ {
		var tot, peak [5]int
		type frame struct {
			m   ArenaMark
			tot [5]int
		}
		var stack []frame
		for r := rng.Intn(12); r >= 0; r-- {
			switch op := rng.Intn(6); {
			case op == 0:
				stack = append(stack, frame{a.Mark(), tot})
				continue
			case op == 1 && len(stack) > 0:
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				a.Release(f.m)
				tot = f.tot
				continue
			}
			n := rng.Intn(1 << uint(rng.Intn(12)))
			// Region 3 (int32) is drawn only after call 100, region 4
			// (int64) only after call 200.
			region := rng.Intn(3 + min(call/100, 2))
			switch region {
			case 0:
				Raw[float64](a, n)
				tot[0] += roundUp(n, 8)
			case 1:
				Raw[float32](a, n)
				tot[1] += roundUp(n, 4)
			case 2:
				Raw[uint8](a, n)
				tot[2] += roundUp(n, 1)
			case 3:
				Raw[int32](a, n)
				tot[3] += roundUp(n, 4)
			default:
				Raw[int64](a, n)
				tot[4] += roundUp(n, 8)
			}
			peak[region] = max(peak[region], tot[region])
		}
		a.Reset()
		got := [5]int{SlabLen[float64](a), SlabLen[float32](a), SlabLen[uint8](a), SlabLen[int32](a), SlabLen[int64](a)}
		for i := range hi {
			hi[i] = max(hi[i], peak[i])
			if got[i] != hi[i] {
				t.Fatalf("call %d region %d: slab %d elements, want the largest peak %d", call, i, got[i], hi[i])
			}
		}
	}
}

// TestArenaMarkRelease pins the stack discipline kernels draw their
// scratch under: a Release hands back every buffer drawn since its Mark —
// nested marks included, and buffers that overflowed the slab to the heap
// — so Drawn and Live read as they did at the Mark and the next draw
// reuses the released memory, while the next Reset still grows the slab to
// cover the released scratch.
func TestArenaMarkRelease(t *testing.T) {
	a := NewArena()
	Raw[float64](a, 64)
	a.Reset() // slab: 64 elements

	base := Raw[float64](a, 8)
	drawn, live := a.Drawn(), a.Live()
	outer := a.Mark()
	first := Raw[float64](a, 16)
	inner := a.Mark()
	Raw[float64](a, 24)
	Raw[int64](a, 5)
	a.Release(inner)
	if got := Raw[float64](a, 24); &got[0] != &a.f64.slab[24] {
		t.Error("a draw after the inner release did not reuse the released memory")
	}
	Raw[float64](a, 104) // overflows the slab: heap
	Raw[uint8](a, 3)
	a.Release(outer)
	if a.Drawn() != drawn || a.Live() != live {
		t.Fatalf("after release: Drawn %d Live %d, want %d %d", a.Drawn(), a.Live(), drawn, live)
	}
	if got := Raw[float64](a, 16); &got[0] != &first[0] {
		t.Error("a draw after the outer release did not reuse the first scratch buffer")
	}
	if &base[0] != &a.f64.slab[0] {
		t.Error("the buffer drawn before the mark moved")
	}

	// The peak was 8 + 16 + 24 + 104 = 152 float64s (and 8 int64s, one
	// cache line): the Reset grows the slabs to it although all but the
	// first of those draws were released.
	a.Reset()
	if got := SlabLen[float64](a); got != 152 {
		t.Errorf("float64 slab %d elements after Reset, want the released peak 152", got)
	}
	if got := SlabLen[int64](a); got != 8 {
		t.Errorf("int64 slab %d elements after Reset, want 8", got)
	}
	if a.Drawn() != 0 || a.Live() != 0 {
		t.Errorf("after Reset: Drawn %d Live %d, want 0 0", a.Drawn(), a.Live())
	}
}

// TestArenaMarkReleaseZeroAlloc: once the slabs have grown to a call's
// peak, a call that draws scratch between Marks and Releases — nested, on
// every region — allocates nothing.
func TestArenaMarkReleaseZeroAlloc(t *testing.T) {
	a := NewArena()
	cycle := func() {
		Raw[float64](a, 40)
		m := a.Mark()
		for _, n := range arenaSizes {
			inner := a.Mark()
			Raw[float64](a, 3*n)
			Raw[float32](a, n)
			Raw[uint8](a, n)
			Raw[int32](a, n)
			Raw[int64](a, n)
			a.Release(inner)
		}
		Raw[float32](a, 7)
		a.Release(m)
		Raw[uint8](a, 9)
		a.Reset()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("warm mark/release cycle allocates %.1f times, want 0", allocs)
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
