package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	polygraph "repro"
)

// fakeBackend is a deterministic, instrumented Backend: the prediction is a
// pure function of the image's first pixel, so the test can compute the
// "direct Classify" answer for any image without a trained system.
type fakeBackend struct {
	delayNS  atomic.Int64  // per-call sleep
	gated    atomic.Bool   // when set, calls block on gate (or ctx)
	gate     chan struct{} // a send releases one gated call, close releases all
	entered  chan struct{} // signaled (non-blocking) at each call start
	calls    atomic.Int64
	maxBatch atomic.Int64

	mu    sync.Mutex
	sizes []int // batch size of every call, in call order
}

func (f *fakeBackend) batchSizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.sizes...)
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
}

func (f *fakeBackend) InputShape() (int, int, int) { return 1, 2, 2 }

func (f *fakeBackend) predict(im polygraph.Image) polygraph.Prediction {
	seed := im.Pixels[0]
	return polygraph.Prediction{
		Label:      int(seed*1000) % 7,
		Reliable:   int(seed*1000)%2 == 0,
		Confidence: seed,
		Activated:  1 + int(seed*100)%4,
		Agreement:  1 + int(seed*10)%3,
	}
}

func (f *fakeBackend) ClassifyBatchContext(ctx context.Context, images []polygraph.Image) ([]polygraph.Prediction, error) {
	f.calls.Add(1)
	f.mu.Lock()
	f.sizes = append(f.sizes, len(images))
	f.mu.Unlock()
	for {
		max := f.maxBatch.Load()
		if int64(len(images)) <= max || f.maxBatch.CompareAndSwap(max, int64(len(images))) {
			break
		}
	}
	select {
	case f.entered <- struct{}{}:
	default:
	}
	if f.gated.Load() {
		select {
		case <-f.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if d := f.delayNS.Load(); d > 0 {
		select {
		case <-time.After(time.Duration(d)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	preds := make([]polygraph.Prediction, len(images))
	for i, im := range images {
		preds[i] = f.predict(im)
	}
	return preds, nil
}

func testImage(seed int) polygraph.Image {
	v := float64(seed%997) / 997
	return polygraph.Image{Channels: 1, Height: 2, Width: 2, Pixels: []float64{v, v, v, v}}
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, payload any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// metricValue extracts one series value from a Prometheus text exposition.
func metricValue(t *testing.T, exposition, series string) int {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(series) + " ([0-9]+)$")
	m := re.FindStringSubmatch(exposition)
	if m == nil {
		return 0
	}
	v, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatalf("metric %s: %v", series, err)
	}
	return v
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeConcurrentBatchedIntegration is the acceptance-criteria
// integration test: ≥64 concurrent requests through the batcher,
// checking (a) every response equals the direct backend prediction, (b) at
// least one coalesced batch of size > 1 formed, (c) /metrics agrees with
// the load, and (d) drain completes in-flight requests then refuses new
// ones.
func TestServeConcurrentBatchedIntegration(t *testing.T) {
	fb := newFakeBackend()
	fb.delayNS.Store(int64(2 * time.Millisecond)) // arrivals queue behind the running batch
	s, ts := startServer(t, Config{
		Backend:    fb,
		MaxBatch:   32,
		QueueDepth: 512,
	})

	const n = 80
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			im := testImage(i)
			req := classifyRequest{Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: im.Pixels}}
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b, _ := io.ReadAll(resp.Body)
				errs <- fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, b)
				return
			}
			var cr classifyResponse
			if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
				errs <- err
				return
			}
			if cr.Prediction == nil {
				errs <- fmt.Errorf("request %d: no prediction", i)
				return
			}
			// (a) identical to the direct call.
			want := toPredictionJSON(fb.predict(im))
			if !reflect.DeepEqual(*cr.Prediction, want) {
				errs <- fmt.Errorf("request %d: got %+v, want %+v", i, *cr.Prediction, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// (b) the batcher coalesced.
	if fb.maxBatch.Load() <= 1 {
		t.Errorf("no coalesced batch formed: max batch size %d", fb.maxBatch.Load())
	}

	// (c) /metrics is consistent with the load.
	exp := scrape(t, ts.URL)
	if v := metricValue(t, exp, "pgmr_serve_requests_total"); v != n {
		t.Errorf("requests_total = %d, want %d", v, n)
	}
	if v := metricValue(t, exp, `pgmr_serve_responses_total{code="200"}`); v != n {
		t.Errorf(`responses_total{code="200"} = %d, want %d`, v, n)
	}
	if v := metricValue(t, exp, "pgmr_serve_images_total"); v != n {
		t.Errorf("images_total = %d, want %d", v, n)
	}
	batches := metricValue(t, exp, "pgmr_serve_batches_total")
	if batches != int(fb.calls.Load()) {
		t.Errorf("batches_total = %d, backend saw %d calls", batches, fb.calls.Load())
	}
	if batches >= n {
		t.Errorf("batches_total = %d for %d images: nothing coalesced", batches, n)
	}
	if v := metricValue(t, exp, "pgmr_serve_coalesced_batches_total"); v < 1 {
		t.Errorf("coalesced_batches_total = %d, want >= 1", v)
	}
	reliable := metricValue(t, exp, `pgmr_decisions_total{outcome="reliable"}`)
	escalated := metricValue(t, exp, `pgmr_decisions_total{outcome="escalated"}`)
	if reliable+escalated != n {
		t.Errorf("decision outcomes %d+%d != %d images", reliable, escalated, n)
	}

	// (d) SIGTERM-style shutdown: block the backend, admit one request,
	// start draining — the admitted request must finish, new ones must be
	// refused, and Drain must return once the straggler completes.
	fb.delayNS.Store(0)
	fb.gated.Store(true)
	for len(fb.entered) > 0 { // clear stale signals from the load phase
		<-fb.entered
	}
	inFlight := make(chan *http.Response, 1)
	go func() {
		req := classifyRequest{Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: testImage(7).Pixels}}
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			inFlight <- nil
			return
		}
		inFlight <- resp
	}()
	select {
	case <-fb.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never reached the backend")
	}

	s.BeginDrain()
	if resp, body := postJSON(t, ts.URL, classifyRequest{Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: testImage(8).Pixels}}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining server accepted a new request: %d %s", resp.StatusCode, body)
	}
	if resp, err := http.Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	close(fb.gate) // release the straggler
	resp := <-inFlight
	if resp == nil {
		t.Fatal("in-flight request failed")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Errorf("in-flight request during drain: status %d: %s", resp.StatusCode, b)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("Drain: %v", err)
	}
}

// TestMultiImageRequest checks the images field: order-aligned predictions
// identical to per-image direct calls.
func TestMultiImageRequest(t *testing.T) {
	fb := newFakeBackend()
	_, ts := startServer(t, Config{Backend: fb})

	req := classifyRequest{}
	var want []predictionJSON
	for i := 0; i < 5; i++ {
		im := testImage(100 + i)
		req.Images = append(req.Images, imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: im.Pixels})
		want = append(want, toPredictionJSON(fb.predict(im)))
	}
	resp, body := postJSON(t, ts.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr classifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr.Predictions, want) {
		t.Errorf("predictions %+v != direct %+v", cr.Predictions, want)
	}
}

// TestRequestDeadline checks timeout_ms produces 504 when the backend
// cannot answer in time, via the context plumbed into the batch call.
func TestRequestDeadline(t *testing.T) {
	fb := newFakeBackend()
	fb.gated.Store(true)
	defer close(fb.gate)
	_, ts := startServer(t, Config{Backend: fb})

	req := classifyRequest{
		Image:     &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: testImage(3).Pixels},
		TimeoutMS: 30,
	}
	resp, body := postJSON(t, ts.URL, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status = %d (%s), want 504", resp.StatusCode, body)
	}
}

// TestAdmissionControl checks the bounded queue sheds load with 429 and a
// Retry-After hint once QueueDepth is exhausted.
func TestAdmissionControl(t *testing.T) {
	fb := newFakeBackend()
	fb.gated.Store(true)
	s, ts := startServer(t, Config{Backend: fb, QueueDepth: 1})

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

	// First request: picked up by the batcher, stuck at the gate.
	r1 := make(chan *http.Response, 1)
	go send(1, r1)
	select {
	case <-fb.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the backend")
	}
	// Second request: occupies the single admission slot.
	r2 := make(chan *http.Response, 1)
	go send(2, r2)
	deadline := time.Now().Add(5 * time.Second)
	for s.depth.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never occupied the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// Third request: shed.
	resp, body := postJSON(t, ts.URL, classifyRequest{Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: testImage(3).Pixels}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(fb.gate)
	for _, ch := range []chan *http.Response{r1, r2} {
		select {
		case resp := <-ch:
			if resp == nil {
				t.Fatal("queued request failed")
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("queued request finished with %d", resp.StatusCode)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued request never finished after the gate opened")
		}
	}
	exp := scrape(t, ts.URL)
	if v := metricValue(t, exp, "pgmr_serve_rejected_total"); v != 1 {
		t.Errorf("rejected_total = %d, want 1", v)
	}
}

// TestBadRequests covers the input-validation envelope.
func TestBadRequests(t *testing.T) {
	fb := newFakeBackend()
	_, ts := startServer(t, Config{Backend: fb, MaxImagesPerRequest: 2, MaxBodyBytes: 1024})

	get, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/classify = %d, want 405", get.StatusCode)
	}

	raw, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	raw.Body.Close()
	if raw.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid JSON = %d, want 400", raw.StatusCode)
	}

	// A body over MaxBodyBytes is the client's to shrink, not malformed:
	// 413, with the length declared up front and without (chunked).
	oversize := []byte(`{"image":{"channels":1,"height":2,"width":2,"pixels":[1,2,3,4]}}` + strings.Repeat(" ", 1024))
	for _, declared := range []bool{true, false} {
		var body io.Reader = bytes.NewReader(oversize)
		if !declared {
			body = io.MultiReader(body) // hides the length from net/http
		}
		big, err := http.Post(ts.URL+"/v1/classify", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		big.Body.Close()
		if big.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversize body (length declared: %v) = %d, want 413", declared, big.StatusCode)
		}
	}

	ok := imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: testImage(1).Pixels}
	cases := []struct {
		name string
		req  classifyRequest
		want int
	}{
		{"no images", classifyRequest{}, http.StatusBadRequest},
		{"image and images", classifyRequest{Image: &ok, Images: []imageJSON{ok}}, http.StatusBadRequest},
		{"bad buffer", classifyRequest{Image: &imageJSON{Channels: 1, Height: 2, Width: 2, Pixels: []float64{1}}}, http.StatusBadRequest},
		{"wrong shape", classifyRequest{Image: &imageJSON{Channels: 3, Height: 2, Width: 2, Pixels: make([]float64, 12)}}, http.StatusBadRequest},
		{"too many images", classifyRequest{Images: []imageJSON{ok, ok, ok}}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
	}
}

// TestLoadGenerator smoke-tests RunLoad against a live server: every
// request succeeds and the percentiles are ordered.
func TestLoadGenerator(t *testing.T) {
	fb := newFakeBackend()
	_, ts := startServer(t, Config{Backend: fb, QueueDepth: 1024})

	images := make([]polygraph.Image, 16)
	for i := range images {
		images[i] = testImage(i)
	}
	res, err := RunLoad(context.Background(), LoadConfig{
		URL: ts.URL, Images: images, Concurrency: 8, Requests: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 120 || res.OK != 120 || res.Failed != 0 {
		t.Errorf("load result %+v", res)
	}
	if res.Images != 120 {
		t.Errorf("images = %d, want 120", res.Images)
	}
	if res.P50 > res.P90 || res.P90 > res.P99 || res.P99 > res.Max {
		t.Errorf("unordered percentiles: %s", res)
	}
	if res.ImagesPerSec <= 0 {
		t.Errorf("throughput %v", res.ImagesPerSec)
	}
}

func TestPercentile(t *testing.T) {
	lat := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(lat, 0.5); p != 5 {
		t.Errorf("p50 = %d, want 5", p)
	}
	if p := Percentile(lat, 1); p != 10 {
		t.Errorf("p100 = %d, want 10", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %d", p)
	}
}
