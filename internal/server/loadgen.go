package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	polygraph "repro"
)

// LoadConfig parameterizes RunLoad.
type LoadConfig struct {
	// URL is the server base, e.g. "http://127.0.0.1:8080".
	URL string
	// Images is the pool of request payloads; requests rotate through it.
	Images []polygraph.Image
	// Concurrency is the number of closed-loop client goroutines.
	// Default 8.
	Concurrency int
	// Requests is the total number of requests to send. Default 200.
	Requests int
	// ImagesPerRequest groups images per request (1 = single-image
	// requests, the batcher's coalescing workload). Default 1.
	ImagesPerRequest int
	// Rate, when positive, switches the generator to open loop: requests
	// are released on a fixed schedule of Rate requests per second,
	// independent of response times — the offered-load mode SLO sweeps
	// need, since a closed loop self-throttles exactly when the server
	// slows down. Concurrency then bounds the in-flight senders; when all
	// are busy, released requests queue and fire late (the schedule never
	// skips). 0 keeps the closed loop.
	Rate float64
	// Warmup excludes the first Warmup requests from the latency
	// percentiles (they still count toward Requests/OK/throughput). Load
	// points that judge steady-state behavior set this to cover ramp-up —
	// connection setup, cache warming, an adaptive controller finding its
	// tier. 0 measures every request.
	Warmup int
	// TimeoutMS, when positive, is sent as the per-request deadline.
	TimeoutMS int
	// Client overrides the HTTP client. Default: http.Client with a 30s
	// timeout.
	Client *http.Client
}

// LoadResult summarizes one load run.
type LoadResult struct {
	Requests int // requests sent
	OK       int // 200 responses
	Rejected int // 429 responses (load shed)
	Failed   int // transport errors and any other status
	Images   int // images successfully classified
	Reliable int // predictions that passed the reliability gate

	Duration     time.Duration
	ImagesPerSec float64

	// Latency percentiles over successful requests past the warmup cut.
	P50, P90, P99, Max time.Duration
}

// String renders a one-look summary.
func (r *LoadResult) String() string {
	return fmt.Sprintf(
		"requests=%d ok=%d rejected=%d failed=%d images=%d reliable=%d wall=%s throughput=%.1f img/s p50=%s p90=%s p99=%s max=%s",
		r.Requests, r.OK, r.Rejected, r.Failed, r.Images, r.Reliable,
		r.Duration.Round(time.Millisecond), r.ImagesPerSec,
		r.P50.Round(time.Microsecond*10), r.P90.Round(time.Microsecond*10),
		r.P99.Round(time.Microsecond*10), r.Max.Round(time.Microsecond*10))
}

// RunLoad drives a serving endpoint with closed-loop concurrent clients and
// returns throughput and latency percentiles. 429 responses count as
// Rejected (the admission controller doing its job), not as failures.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	if cfg.URL == "" {
		return nil, fmt.Errorf("server: LoadConfig.URL is required")
	}
	if len(cfg.Images) == 0 {
		return nil, fmt.Errorf("server: LoadConfig.Images is empty")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 200
	}
	if cfg.ImagesPerRequest <= 0 {
		cfg.ImagesPerRequest = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}

	// Pre-marshal one body per distinct rotation offset so workers do no
	// JSON work on the hot path.
	bodies := make([][]byte, len(cfg.Images))
	for off := range cfg.Images {
		var req classifyRequest
		req.TimeoutMS = cfg.TimeoutMS
		if cfg.ImagesPerRequest == 1 {
			j := toImageJSON(cfg.Images[off])
			req.Image = &j
		} else {
			req.Images = make([]imageJSON, cfg.ImagesPerRequest)
			for i := range req.Images {
				req.Images[i] = toImageJSON(cfg.Images[(off+i)%len(cfg.Images)])
			}
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("server: marshaling load body: %w", err)
		}
		bodies[off] = b
	}

	var (
		next      atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		res       LoadResult
	)
	url := cfg.URL + "/v1/classify"

	// In open-loop mode a pacer goroutine releases request indices on the
	// fixed schedule; in closed-loop mode workers pull the next index as
	// soon as their previous response lands.
	var tokens chan int
	if cfg.Rate > 0 {
		tokens = make(chan int, cfg.Requests)
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		go func() {
			defer close(tokens)
			t0 := time.Now()
			for n := 0; n < cfg.Requests; n++ {
				due := t0.Add(time.Duration(n) * interval)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				select {
				case tokens <- n:
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var n int
				if tokens != nil {
					tok, ok := <-tokens
					if !ok || ctx.Err() != nil {
						return
					}
					n = tok
				} else {
					n = int(next.Add(1)) - 1
					if n >= cfg.Requests || ctx.Err() != nil {
						return
					}
				}
				body := bodies[n%len(bodies)]
				t0 := time.Now()
				ok, rejected, images, reliable := fireOne(ctx, client, url, body)
				lat := time.Since(t0)
				mu.Lock()
				res.Requests++
				switch {
				case ok:
					res.OK++
					res.Images += images
					res.Reliable += reliable
					if n >= cfg.Warmup {
						latencies = append(latencies, lat)
					}
				case rejected:
					res.Rejected++
				default:
					res.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.Duration = time.Since(start)
	if res.Duration > 0 {
		res.ImagesPerSec = float64(res.Images) / res.Duration.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50 = Percentile(latencies, 0.50)
	res.P90 = Percentile(latencies, 0.90)
	res.P99 = Percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		res.Max = latencies[n-1]
	}
	return &res, nil
}

// fireOne sends one pre-marshaled classify request and reports the outcome.
func fireOne(ctx context.Context, client *http.Client, url string, body []byte) (ok, rejected bool, images, reliable int) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false, false, 0, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return false, false, 0, 0
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var cr classifyResponse
		if json.NewDecoder(resp.Body).Decode(&cr) != nil {
			return false, false, 0, 0
		}
		preds := cr.Predictions
		if cr.Prediction != nil {
			preds = append(preds, *cr.Prediction)
		}
		for _, p := range preds {
			if p.Reliable {
				reliable++
			}
		}
		return true, false, len(preds), reliable
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return false, true, 0, 0
	default:
		io.Copy(io.Discard, resp.Body)
		return false, false, 0, 0
	}
}

func toImageJSON(im polygraph.Image) imageJSON {
	return imageJSON{Channels: im.Channels, Height: im.Height, Width: im.Width, Pixels: im.Pixels}
}

// Percentile returns the q-quantile (0 < q ≤ 1) of ascending-sorted
// latencies using the nearest-rank method; 0 for an empty slice.
func Percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted))*q+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
