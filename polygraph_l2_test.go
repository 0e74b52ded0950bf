package polygraph

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cache/persist"
)

// tieredTestSystem attaches a tiered (memory + disk) prediction cache to
// the hand-assembled test system, the way Build does when Options.Cache.Dir
// is set.
func tieredTestSystem(t *testing.T, dir string) *System {
	t.Helper()
	s := testSystem(t)
	_, err := s.sys.EnableTieredCache(
		cache.Config{MaxBytes: 1 << 20, TTL: time.Hour, Shards: 4},
		persist.Config{Dir: dir, TTL: time.Hour},
		"bits=0")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRestartWarmServing is the restart acceptance property: a system
// warmed to a ≥99% cache hit ratio, shut down cleanly, and rebuilt against
// the same cache directory must serve at least 90% of its first 100
// requests from cache (L1 + L2 promotions) — and every restart-served
// prediction must equal the pre-restart one.
func TestRestartWarmServing(t *testing.T) {
	dir := t.TempDir()
	s := tieredTestSystem(t, dir)

	const pool = 25
	images := make([]Image, pool)
	for i := range images {
		images[i] = testImage(int64(100 + i))
	}

	// Warm until the overall hit ratio crosses 99%: one miss pass over the
	// pool, then repeated hit passes.
	want := make([]Prediction, pool)
	for pass := 0; pass < 110; pass++ {
		for i, im := range images {
			p, err := s.Classify(im)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 0 {
				want[i] = p
			} else if !reflect.DeepEqual(p, want[i]) {
				t.Fatalf("prediction drifted while warming: %+v != %+v", p, want[i])
			}
		}
	}
	st := s.CacheStats()
	if ratio := float64(st.Hits) / float64(st.Hits+st.Misses); ratio < 0.99 {
		t.Fatalf("warm hit ratio %.4f < 0.99 (stats %+v)", ratio, st)
	}
	// Clean shutdown: the write-behind tail reaches disk.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: an identically configured system on the same directory.
	s2 := tieredTestSystem(t, dir)
	defer s2.Close()
	if st := s2.CacheStats(); st.L2Recovered == 0 || st.L2Entries != pool {
		t.Fatalf("restart recovered %d entries (stats %+v); want %d", st.L2Entries, st, pool)
	}

	// First 100 requests after restart: ≥90% must be cache-served.
	for n := 0; n < 100; n++ {
		im := images[n%pool]
		p, err := s2.Classify(im)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want[n%pool]) {
			t.Fatalf("request %d after restart: %+v != pre-restart %+v", n, p, want[n%pool])
		}
	}
	st2 := s2.CacheStats()
	total := st2.Hits + st2.Misses
	if total != 100 {
		t.Fatalf("restart probe count = %d, want 100 (stats %+v)", total, st2)
	}
	if ratio := float64(st2.Hits) / float64(total); ratio < 0.90 {
		t.Fatalf("first-100 hit ratio after restart = %.2f < 0.90 (stats %+v)", ratio, st2)
	}
	if st2.L2Hits == 0 {
		t.Fatalf("no L2 promotions after restart (stats %+v)", st2)
	}
}

// TestTieredCacheStatsSurface: the public CacheStats carries the L2
// counters when a disk tier is attached.
func TestTieredCacheStatsSurface(t *testing.T) {
	dir := t.TempDir()
	s := tieredTestSystem(t, dir)
	defer s.Close()
	if _, err := s.Classify(testImage(7)); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushCache(); err != nil {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.L2Flushed != 1 || st.L2Entries != 1 || st.L2Bytes <= 0 || st.L2Backlog != 0 {
		t.Fatalf("L2 stats after one flushed decision = %+v", st)
	}
}
