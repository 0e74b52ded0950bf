package polygraph

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
)

// cachedTestSystem attaches a prediction cache to the hand-assembled test
// system, the way Build does when Options.Cache is set.
func cachedTestSystem(t *testing.T) *System {
	t.Helper()
	s := testSystem(t)
	s.sys.EnableCache(cache.Config{MaxBytes: 1 << 20, TTL: time.Hour, Shards: 4}, "bits=0")
	return s
}

// TestPublicCacheRoundTrip covers the public cache surface: CacheLookup
// misses before the first classification, hits after it with the identical
// prediction, and CacheStats reflects the traffic.
func TestPublicCacheRoundTrip(t *testing.T) {
	s := cachedTestSystem(t)
	plain := testSystem(t)
	plain.sys.Workers = 1
	plain.sys.Members = s.sys.Members
	im := testImage(21)

	if _, ok := s.CacheLookup(im); ok {
		t.Fatal("hit on cold cache")
	}
	want, err := plain.Classify(im)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Classify(im)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cached system Classify = %+v; uncached %+v", got, want)
	}
	hit, ok := s.CacheLookup(im)
	if !ok || !reflect.DeepEqual(hit, want) {
		t.Fatalf("CacheLookup after Classify = %+v, %v; want %+v, true", hit, ok, want)
	}
	st := s.CacheStats()
	if st.Hits == 0 || st.Misses == 0 || st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("CacheStats = %+v; want hits, misses, one entry", st)
	}

	// Duplicate-heavy batch: dedup + hits, predictions unchanged.
	batch := []Image{im, testImage(22), im, testImage(22), im}
	wantBatch, err := plain.ClassifyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := s.ClassifyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantBatch, gotBatch) {
		t.Fatalf("cached ClassifyBatch = %+v; uncached %+v", gotBatch, wantBatch)
	}
	if st := s.CacheStats(); st.Coalesced == 0 {
		t.Fatalf("duplicate-heavy batch recorded no coalescing: %+v", st)
	}
}

// TestPublicCacheDisabled: without a cache, the probe surface reports
// nothing rather than erroring.
func TestPublicCacheDisabled(t *testing.T) {
	s := testSystem(t)
	if _, ok := s.CacheLookup(testImage(1)); ok {
		t.Error("CacheLookup hit with no cache attached")
	}
	if st := s.CacheStats(); st != (CacheStats{}) {
		t.Errorf("CacheStats with no cache = %+v; want zero", st)
	}
}

// TestPublicCacheLookupValidates: invalid or mismatched images miss rather
// than panic.
func TestPublicCacheLookupValidates(t *testing.T) {
	s := cachedTestSystem(t)
	if _, ok := s.CacheLookup(Image{}); ok {
		t.Error("CacheLookup hit on invalid image")
	}
	wrong := Image{Channels: 3, Height: 8, Width: 8, Pixels: make([]float64, 3*8*8)}
	if _, ok := s.CacheLookup(wrong); ok {
		t.Error("CacheLookup hit on shape-mismatched image")
	}
}
