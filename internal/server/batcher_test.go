package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"
	"time"

	polygraph "repro"
)

// The batcher tests below drive batch formation deterministically: the fake
// backend is gated, so the batcher goroutine is parked inside a backend call
// while the test queues groups behind it (straight through admit, the
// handler's own enqueue path), and each send on the gate lets exactly one
// call return. Nothing depends on sleeps or on how fast anything runs; the
// timeouts only turn a hang into a failure.

const hang = 10 * time.Second

func testImages(from, n int) []polygraph.Image {
	ims := make([]polygraph.Image, n)
	for i := range ims {
		ims[i] = testImage(from + i)
	}
	return ims
}

func imagesJSON(ims []polygraph.Image) []imageJSON {
	out := make([]imageJSON, len(ims))
	for i, im := range ims {
		out[i] = imageJSON{Channels: im.Channels, Height: im.Height, Width: im.Width, Pixels: im.Pixels}
	}
	return out
}

// mustAdmit queues one group and fails the test when admission sheds it.
func mustAdmit(t *testing.T, s *Server, ims []polygraph.Image) []*item {
	t.Helper()
	g, ok := s.admit(context.Background(), ims)
	if !ok {
		t.Fatalf("admit shed a group of %d", len(ims))
	}
	return g
}

// parkBatcher blocks the batcher inside a backend call on a lone image and
// returns that image's group.
func parkBatcher(t *testing.T, s *Server, fb *fakeBackend) []*item {
	t.Helper()
	fb.gated.Store(true)
	g := mustAdmit(t, s, testImages(900, 1))
	awaitEntered(t, fb)
	return g
}

func awaitEntered(t *testing.T, fb *fakeBackend) {
	t.Helper()
	select {
	case <-fb.entered:
	case <-time.After(hang):
		t.Fatal("the batcher never reached the backend")
	}
}

// releaseOne lets exactly one gated backend call return.
func releaseOne(t *testing.T, fb *fakeBackend) {
	t.Helper()
	select {
	case fb.gate <- struct{}{}:
	case <-time.After(hang):
		t.Fatal("no backend call was waiting at the gate")
	}
}

// await collects one group's results and checks them against the backend's
// direct answers, in group order.
func await(t *testing.T, fb *fakeBackend, g []*item) {
	t.Helper()
	for i, it := range g {
		select {
		case res := <-it.done:
			if res.err != nil {
				t.Fatalf("item %d: %v", i, res.err)
			}
			if want := fb.predict(it.img); !reflect.DeepEqual(res.pred, want) {
				t.Fatalf("item %d: got %+v, want %+v", i, res.pred, want)
			}
		case <-time.After(hang):
			t.Fatalf("item %d was never answered", i)
		}
	}
}

// TestIdleServerDispatchesRequestWhole: a 32-image request on an idle
// server reaches the backend as exactly one batch of 32.
func TestIdleServerDispatchesRequestWhole(t *testing.T) {
	fb := newFakeBackend()
	_, ts := startServer(t, Config{Backend: fb})
	ims := testImages(0, 32)
	resp, body := postJSON(t, ts.URL, classifyRequest{Images: imagesJSON(ims)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := fb.batchSizes(); !reflect.DeepEqual(got, []int{32}) {
		t.Errorf("backend saw batches %v, want [32]", got)
	}
}

// TestBatchWindowIsIgnored: the deprecated field no longer delays anything —
// a lone request under an hour-long "window" is answered at once.
func TestBatchWindowIsIgnored(t *testing.T) {
	fb := newFakeBackend()
	_, ts := startServer(t, Config{Backend: fb, BatchWindow: time.Hour})
	done := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, ts.URL, classifyRequest{Images: imagesJSON(testImages(0, 1))})
		done <- resp.StatusCode
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Errorf("status %d", code)
		}
	case <-time.After(hang):
		t.Fatal("a lone request is waiting on Config.BatchWindow")
	}
}

// TestQueuedSinglesShareTheNextBatch: whatever queued while a batch ran
// comes out as one next batch, capped at MaxBatch.
func TestQueuedSinglesShareTheNextBatch(t *testing.T) {
	fb := newFakeBackend()
	s, _ := startServer(t, Config{Backend: fb, MaxBatch: 4})
	groups := [][]*item{parkBatcher(t, s, fb)}
	for i := 0; i < 6; i++ {
		groups = append(groups, mustAdmit(t, s, testImages(i, 1)))
	}
	for range []int{1, 4, 2} {
		releaseOne(t, fb)
	}
	for _, g := range groups {
		await(t, fb, g)
	}
	if got := fb.batchSizes(); !reflect.DeepEqual(got, []int{1, 4, 2}) {
		t.Errorf("backend saw batches %v, want [1 4 2]", got)
	}
}

// TestRequestThatDoesNotFitIsCarriedWhole: a 40-image request behind 30
// queued singles at MaxBatch 64 is not split to fill the batch — it heads
// the next one.
func TestRequestThatDoesNotFitIsCarriedWhole(t *testing.T) {
	fb := newFakeBackend()
	s, _ := startServer(t, Config{Backend: fb, MaxBatch: 64})
	groups := [][]*item{parkBatcher(t, s, fb)}
	for i := 0; i < 30; i++ {
		groups = append(groups, mustAdmit(t, s, testImages(i, 1)))
	}
	groups = append(groups, mustAdmit(t, s, testImages(100, 40)))
	for range []int{1, 30, 40} {
		releaseOne(t, fb)
	}
	for _, g := range groups {
		await(t, fb, g)
	}
	if got := fb.batchSizes(); !reflect.DeepEqual(got, []int{1, 30, 40}) {
		t.Errorf("backend saw batches %v, want [1 30 40]", got)
	}
	if d := s.depth.Load(); d != 0 {
		t.Errorf("depth = %d after every group was dispatched, want 0", d)
	}
}

// TestOversizedRequestIsChunkedInOrder: a request larger than the policy's
// batch cap is the one case that is split, and the response still lists the
// predictions in request order.
func TestOversizedRequestIsChunkedInOrder(t *testing.T) {
	fb := newFakeBackend()
	_, ts := startServer(t, Config{Backend: fb, MaxBatch: 64, Policy: &fakePolicy{max: 2}})
	ims := testImages(40, 5)
	resp, body := postJSON(t, ts.URL, classifyRequest{Images: imagesJSON(ims)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr classifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	want := make([]predictionJSON, len(ims))
	for i, im := range ims {
		want[i] = toPredictionJSON(fb.predict(im))
	}
	if !reflect.DeepEqual(cr.Predictions, want) {
		t.Errorf("predictions %+v != direct %+v", cr.Predictions, want)
	}
	if got := fb.batchSizes(); !reflect.DeepEqual(got, []int{2, 2, 1}) {
		t.Errorf("backend saw batches %v, want [2 2 1]", got)
	}
}

// TestStopFailsQueuedAndCarriedGroups: stopping the batcher while it holds a
// carried-over group and another is still queued answers every item of both
// with errServerStopped and returns every reserved slot.
func TestStopFailsQueuedAndCarriedGroups(t *testing.T) {
	fb := newFakeBackend()
	s, err := New(Config{Backend: fb, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	first := parkBatcher(t, s, fb)
	// Behind the parked call: a single that becomes the next batch's head, a
	// 3-image group that cannot join it under MaxBatch 2 and is carried, and
	// a 2-image group that stays queued.
	head := mustAdmit(t, s, testImages(0, 1))
	carried := mustAdmit(t, s, testImages(10, 3))
	queued := mustAdmit(t, s, testImages(20, 2))

	releaseOne(t, fb) // the batcher collects [head], carries the 3-group, parks again
	await(t, fb, first)
	awaitEntered(t, fb)
	close(s.stop)
	releaseOne(t, fb)
	await(t, fb, head)

	select {
	case <-s.batcherDone:
	case <-time.After(hang):
		t.Fatal("the batcher did not stop")
	}
	for _, g := range [][]*item{carried, queued} {
		for i, it := range g {
			select {
			case res := <-it.done:
				if !errors.Is(res.err, errServerStopped) {
					t.Errorf("group of %d, item %d: err = %v, want errServerStopped", len(g), i, res.err)
				}
			default:
				t.Errorf("group of %d, item %d was left unanswered", len(g), i)
			}
		}
	}
	if d := s.depth.Load(); d != 0 {
		t.Errorf("depth = %d after stop, want 0", d)
	}
	if g := s.metrics.QueueDepth.Value(); g != 0 {
		t.Errorf("queue-depth gauge = %d after stop, want 0", g)
	}
	if got := fb.batchSizes(); !reflect.DeepEqual(got, []int{1, 1}) {
		t.Errorf("backend saw batches %v, want [1 1]", got)
	}
}
