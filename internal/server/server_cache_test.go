package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	polygraph "repro"
)

// fakeCachingBackend augments fakeBackend with the CacheProber surface: a
// map-backed prediction cache filled by every successful batch, the way
// *polygraph.System behaves with Options.Cache set.
type fakeCachingBackend struct {
	*fakeBackend
	mu       sync.Mutex
	cache    map[string]polygraph.Prediction
	hits     uint64
	misses   uint64
	computed int // images that actually reached the ensemble
}

func newFakeCachingBackend() *fakeCachingBackend {
	return &fakeCachingBackend{fakeBackend: newFakeBackend(), cache: map[string]polygraph.Prediction{}}
}

func cacheKeyOf(im polygraph.Image) string { return fmt.Sprint(im.Pixels) }

func (f *fakeCachingBackend) CacheLookup(im polygraph.Image) (polygraph.Prediction, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.cache[cacheKeyOf(im)]
	if ok {
		f.hits++
	} else {
		f.misses++
	}
	return p, ok
}

func (f *fakeCachingBackend) CacheStats() polygraph.CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return polygraph.CacheStats{
		Hits: f.hits, Misses: f.misses,
		Entries: len(f.cache), Bytes: int64(64 * len(f.cache)),
	}
}

func (f *fakeCachingBackend) ClassifyBatchContext(ctx context.Context, images []polygraph.Image) ([]polygraph.Prediction, error) {
	preds, err := f.fakeBackend.ClassifyBatchContext(ctx, images)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.computed += len(images)
	for i, im := range images {
		f.cache[cacheKeyOf(im)] = preds[i]
	}
	f.mu.Unlock()
	return preds, nil
}

func (f *fakeCachingBackend) computedImages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.computed
}

// TestCacheHeader covers the X-PGMR-Cache response header and the
// pre-admission probe accounting: miss → computed once; repeat → hit with
// no backend work; mixed multi-image request → coalesced with only the
// uncached remainder computed; no header without a caching backend.
func TestCacheHeader(t *testing.T) {
	fb := newFakeCachingBackend()
	_, ts := startServer(t, Config{Backend: fb})

	imA, imB := testImage(10), testImage(20)
	toJSON := func(im polygraph.Image) imageJSON {
		return imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: im.Pixels}
	}
	wantA := toPredictionJSON(fb.predict(imA))
	wantB := toPredictionJSON(fb.predict(imB))

	// Cold: miss, computed.
	resp, body := postJSON(t, ts.URL, classifyRequest{Image: ptrTo(toJSON(imA))})
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "miss" {
		t.Fatalf("cold request: status %d, %s=%q (%s)", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader), body)
	}
	if n := fb.computedImages(); n != 1 {
		t.Fatalf("cold request computed %d images, want 1", n)
	}

	// Warm repeat: hit, no backend work, identical prediction.
	resp, body = postJSON(t, ts.URL, classifyRequest{Image: ptrTo(toJSON(imA))})
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "hit" {
		t.Fatalf("warm request: status %d, %s=%q", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader))
	}
	var cr classifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Prediction == nil || !reflect.DeepEqual(*cr.Prediction, wantA) {
		t.Fatalf("cached prediction %+v, want %+v", cr.Prediction, wantA)
	}
	if n := fb.computedImages(); n != 1 {
		t.Fatalf("warm request recomputed: %d images", n)
	}

	// Mixed request: cached A + cold B → coalesced, only B computed.
	resp, body = postJSON(t, ts.URL, classifyRequest{Images: []imageJSON{toJSON(imA), toJSON(imB)}})
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "coalesced" {
		t.Fatalf("mixed request: status %d, %s=%q (%s)", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader), body)
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr.Predictions, []predictionJSON{wantA, wantB}) {
		t.Fatalf("mixed predictions %+v, want [%+v %+v]", cr.Predictions, wantA, wantB)
	}
	if n := fb.computedImages(); n != 2 {
		t.Fatalf("mixed request computed %d total images, want 2 (B only)", n)
	}

	// One more warm probe. It dispatches nothing, so the occupancy gauges
	// below are the ones the scrape itself refreshes.
	resp, _ = postJSON(t, ts.URL, classifyRequest{Image: ptrTo(toJSON(imB))})
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "hit" {
		t.Fatalf("warm B request: status %d, %s=%q", resp.StatusCode, cacheHeader, resp.Header.Get(cacheHeader))
	}

	// Telemetry: probe counters and occupancy gauges are exported.
	exp := scrape(t, ts.URL)
	if v := metricValue(t, exp, "pgmr_cache_hits_total"); v != 3 {
		t.Errorf("pgmr_cache_hits_total = %d, want 3", v)
	}
	if v := metricValue(t, exp, "pgmr_cache_misses_total"); v != 2 {
		t.Errorf("pgmr_cache_misses_total = %d, want 2", v)
	}
	if v := metricValue(t, exp, "pgmr_cache_entries"); v != 2 {
		t.Errorf("pgmr_cache_entries = %d, want 2", v)
	}
	if v := metricValue(t, exp, "pgmr_cache_bytes"); v <= 0 {
		t.Errorf("pgmr_cache_bytes = %d, want > 0", v)
	}
}

// TestNoCacheHeaderWithoutProber: a backend without the CacheProber surface
// must not grow the header.
func TestNoCacheHeaderWithoutProber(t *testing.T) {
	fb := newFakeBackend()
	_, ts := startServer(t, Config{Backend: fb})
	resp, _ := postJSON(t, ts.URL, classifyRequest{Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: testImage(1).Pixels}})
	if h, ok := resp.Header[cacheHeader]; ok {
		t.Errorf("%s=%q set without a caching backend", cacheHeader, h)
	}
}

// TestCacheHitServedWhileSaturated is the satellite guarantee: a fully
// cached request is answered 200 while the admission queue is saturated and
// shedding new work with 429 — hits never consume queue slots.
func TestCacheHitServedWhileSaturated(t *testing.T) {
	fb := newFakeCachingBackend()
	s, ts := startServer(t, Config{Backend: fb, QueueDepth: 1})

	// Prime the cache with image 1 while the backend is open.
	prime, _ := postJSON(t, ts.URL, classifyRequest{Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: testImage(1).Pixels}})
	if prime.StatusCode != http.StatusOK {
		t.Fatalf("prime request: %d", prime.StatusCode)
	}

	// Saturate: gate the backend, park one request at the gate and one in
	// the single queue slot (the TestAdmissionControl recipe).
	fb.gated.Store(true)
	for len(fb.entered) > 0 {
		<-fb.entered
	}
	send := func(seed int, out chan<- *http.Response) {
		req := classifyRequest{Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: testImage(seed).Pixels}}
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			out <- nil
			return
		}
		out <- resp
	}
	r1 := make(chan *http.Response, 1)
	go send(2, r1)
	select {
	case <-fb.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the backend")
	}
	r2 := make(chan *http.Response, 1)
	go send(3, r2)
	deadline := time.Now().Add(5 * time.Second)
	for s.depth.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never occupied the queue")
		}
		time.Sleep(time.Millisecond)
	}

	// Uncached request: shed with 429.
	resp, body := postJSON(t, ts.URL, classifyRequest{Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: testImage(4).Pixels}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("uncached under saturation: status %d (%s), want 429", resp.StatusCode, body)
	}

	// Cached request: served despite the saturated queue.
	resp, body = postJSON(t, ts.URL, classifyRequest{Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: testImage(1).Pixels}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached under saturation: status %d (%s), want 200", resp.StatusCode, body)
	}
	if h := resp.Header.Get(cacheHeader); h != "hit" {
		t.Errorf("cached under saturation: %s=%q, want hit", cacheHeader, h)
	}
	var cr classifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	want := toPredictionJSON(fb.predict(testImage(1)))
	if cr.Prediction == nil || !reflect.DeepEqual(*cr.Prediction, want) {
		t.Errorf("cached prediction under saturation = %+v, want %+v", cr.Prediction, want)
	}

	close(fb.gate)
	for _, ch := range []chan *http.Response{r1, r2} {
		select {
		case resp := <-ch:
			if resp != nil {
				resp.Body.Close()
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked request never finished")
		}
	}
}

func ptrTo[T any](v T) *T { return &v }
