package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/preprocess"
	"repro/internal/tensor"
)

// tinySystem is a real 3-member core.System on 1×2×2 frames: Identity
// preprocessing into Flatten+Dense members with distinct weights.
func tinySystem(t *testing.T) *core.System {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	members := make([]core.Member, 3)
	for i := range members {
		net := nn.MustNetwork([]int{1, 2, 2}, 3, nn.NewFlatten(), nn.NewDense(4, 3, rng))
		members[i] = core.Member{Name: fmt.Sprintf("m%d", i), Pre: preprocess.Identity{}, Net: net}
	}
	sys, err := core.NewSystem(members, core.Thresholds{Conf: 0.35, Freq: 2})
	if err != nil {
		t.Fatal(err)
	}
	sys.Staged = true
	return sys
}

// sceneFrame derives a 1×2×2 frame in [0,1] from a scene id, so equal ids
// are equal frames and distinct ids distinct ones.
func sceneFrame(id int) *tensor.T {
	f := tensor.New(1, 2, 2)
	v := float64(id) / 100
	copy(f.Data, []float64{v, 1 - v, v * v, 0.5})
	return f
}

// checkStreamOverCachedSystem: a stream over a System with EnableCache gets
// its repeated frames answered by the system's cache — one ensemble pass per
// distinct frame — with emitted decisions, smoothing and statistics equal to
// the uncached twin.
func checkStreamOverCachedSystem(t *testing.T, batch int) {
	t.Helper()
	ids := []int{10, 10, 20, 10, 20, 20, 30}
	frames := make([]*tensor.T, len(ids))
	for i, id := range ids {
		frames[i] = sceneFrame(id)
	}
	run := func(sys *core.System) ([]Frame, Stats) {
		p, err := NewProcessor(sys, Config{Window: 3, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		var out []Frame
		st := p.Process(&SliceSource{Frames: frames}, func(f Frame) {
			f.Latency = 0 // wall-clock, not comparable
			out = append(out, f)
		})
		st.MaxLatency = 0
		return out, st
	}
	want, wantStats := run(tinySystem(t))
	cached := tinySystem(t)
	pc := cached.EnableCache(cache.Config{MaxBytes: 1 << 20, TTL: time.Hour, Shards: 2}, "")
	got, gotStats := run(cached)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("frames over the cached system differ:\ncached   %+v\nuncached %+v", got, want)
	}
	if gotStats != wantStats {
		t.Errorf("stats: cached %+v != uncached %+v", gotStats, wantStats)
	}
	if m := pc.Stats().Misses; m != 3 {
		t.Errorf("cache misses = %d, want 3 (one per distinct frame)", m)
	}
}

// TestStreamCacheDedups: frame-at-a-time, repeated frames classify once.
func TestStreamCacheDedups(t *testing.T) { checkStreamOverCachedSystem(t, 1) }

// TestStreamCacheBatchedDedups: in throughput mode intra-batch duplicates and
// cross-batch repeats are both served from the system's cache.
func TestStreamCacheBatchedDedups(t *testing.T) { checkStreamOverCachedSystem(t, 3) }
