package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the request id the trace joins client and server spans
// on. It is sent on every request, traced or not.
const reqHeader = "X-Bench-Req"

// generator is the closed-loop load source: one goroutine per processor,
// each waiting for its reply before sending again, over keep-alive
// connections. At most `clients` requests are ever in flight, so no queue
// forms in front of the server.
//
// Two clients against one batch window phase-lock: depending on how a run
// happened to start, their requests coalesce into one batch forever or
// alternate forever, and the two regimes differ by 20 % in throughput. So
// forty times per phase each client but the first pauses for a seeded
// random time of up to one request latency (about 3 % of capacity on the
// 32-image workloads, nothing measurable on the others). A run then passes
// through the regimes many times instead of being stuck in one.
type generator struct {
	t       *traffic
	urls    []string
	clients int
	client  *http.Client
	tr      *tracer
	// cursor indexes traffic.seq; it runs on across phases so that warm-up
	// and timed phase are one stream.
	cursor atomic.Uint64
	phases int
}

func newGenerator(t *traffic, d *deployment, tr *tracer) *generator {
	clients := runtime.GOMAXPROCS(0)
	g := &generator{t: t, clients: clients, tr: tr}
	for _, n := range d.nodes {
		g.urls = append(g.urls, n.url+"/v1/classify")
	}
	g.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
	}
	return g
}

func (g *generator) close() { g.client.CloseIdleConnections() }

// phase is what one stretch of load observed.
type phase struct {
	span time.Duration
	// Per request, in completion order per client: offset of the reply
	// from the phase start, latency, images answered 200 (0 on failure).
	doneAt, latency, images []float64
	requests, failed        int
	failures                []string
	// Per answered image.
	answered, mismatched, escalated int
	activatedSum                    int
	confDiff                        float64
	// selfSeconds is generator time outside the HTTP round trip: reply
	// parsing, checking and bookkeeping.
	selfSeconds float64
}

type reply struct {
	Prediction  *predictionJSON  `json:"prediction"`
	Predictions []predictionJSON `json:"predictions"`
}

type predictionJSON struct {
	Label      *int    `json:"label"`
	Reliable   *bool   `json:"reliable"`
	Confidence float64 `json:"confidence"`
	Activated  int     `json:"activated"`
}

// run sends load for span and returns what it saw. Clients stop sending at
// the deadline and the call returns once every reply is in.
func (g *generator) run(span time.Duration) *phase { return g.runUntil(span, 0) }

// runRequests sends exactly n requests (unless 30 s pass first).
func (g *generator) runRequests(n uint64) *phase {
	return g.runUntil(30*time.Second, g.cursor.Load()+n)
}

// runUntil sends load until span has passed or the stream position reaches
// stopAt (0: no limit).
func (g *generator) runUntil(span time.Duration, stopAt uint64) *phase {
	parts := make([]*phase, g.clients)
	g.phases++
	start := time.Now()
	deadline := start.Add(span)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var shake *rand.Rand
			if c > 0 {
				shake = rand.New(rand.NewSource(splitmix(g.t.seed, uint64(g.phases<<8|c)<<41)))
			}
			parts[c] = g.clientLoop(start, deadline, stopAt, shake)
		}(c)
	}
	wg.Wait()

	out := &phase{span: min(span, time.Since(start))}
	for _, p := range parts {
		out.doneAt = append(out.doneAt, p.doneAt...)
		out.latency = append(out.latency, p.latency...)
		out.images = append(out.images, p.images...)
		out.requests += p.requests
		out.failed += p.failed
		out.failures = append(out.failures, p.failures...)
		out.answered += p.answered
		out.mismatched += p.mismatched
		out.escalated += p.escalated
		out.activatedSum += p.activatedSum
		out.confDiff = math.Max(out.confDiff, p.confDiff)
		out.selfSeconds += p.selfSeconds
	}
	return out
}

// next claims the next stream position, or reports that stopAt is reached.
func (g *generator) next(stopAt uint64) (uint64, bool) {
	for {
		cur := g.cursor.Load()
		if stopAt > 0 && cur >= stopAt {
			return 0, false
		}
		if g.cursor.CompareAndSwap(cur, cur+1) {
			return cur, true
		}
	}
}

// clientLoop is one closed-loop client. A non-nil shake makes it pause
// forty times per phase (see generator).
func (g *generator) clientLoop(start, deadline time.Time, stopAt uint64, shake *rand.Rand) *phase {
	p := &phase{}
	var buf bytes.Buffer
	every := deadline.Sub(start) / 40
	nextShake := start.Add(every)
	for {
		t0 := time.Now()
		if !t0.Before(deadline) {
			return p
		}
		if shake != nil && t0.After(nextShake) && len(p.latency) > 0 {
			last := p.latency[len(p.latency)-1]
			time.Sleep(time.Duration(shake.Float64() * last * float64(time.Second)))
			nextShake = nextShake.Add(every)
			continue
		}
		n, ok := g.next(stopAt)
		if !ok {
			return p
		}
		body := g.t.seq[n%uint64(len(g.t.seq))]
		url := g.urls[n%uint64(len(g.urls))]

		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(g.t.bodies[body]))
		if err != nil {
			panic(err) // the URL is the harness's own
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(reqHeader, strconv.FormatUint(n, 10))
		status := 0
		resp, err := g.client.Do(req)
		if err == nil {
			status = resp.StatusCode
			buf.Reset()
			_, err = io.Copy(&buf, resp.Body)
			resp.Body.Close()
		}
		t1 := time.Now()
		if g.tr.enabled() {
			g.tr.span("client.request", "", n, t0, t1, len(g.t.bodyImages[body]))
		}

		p.requests++
		images := 0
		switch {
		case err != nil:
			p.fail("request %d: %v", n, err)
		case status != http.StatusOK:
			p.fail("request %d: status %d: %s", n, status, bytes.TrimSpace(buf.Bytes()))
		default:
			if err := g.check(p, g.t.bodyImages[body], buf.Bytes()); err != nil {
				p.fail("request %d: %v", n, err)
			} else {
				images = len(g.t.bodyImages[body])
			}
		}
		p.doneAt = append(p.doneAt, t1.Sub(start).Seconds())
		p.latency = append(p.latency, t1.Sub(t0).Seconds())
		p.images = append(p.images, float64(images))
		p.selfSeconds += time.Since(t1).Seconds()
	}
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// check parses one 200 reply and compares every prediction's label and
// reliable flag with the oracle. A reply that does not parse, or that
// carries the wrong number of predictions, is malformed and fails the
// request; a differing verdict is counted as a mismatch.
func (g *generator) check(p *phase, ids []int32, raw []byte) error {
	var r reply
	if err := json.Unmarshal(raw, &r); err != nil {
		return fmt.Errorf("malformed reply: %v", err)
	}
	preds := r.Predictions
	if r.Prediction != nil {
		preds = append(preds, *r.Prediction)
	}
	if len(preds) != len(ids) {
		return fmt.Errorf("malformed reply: %d predictions for %d images", len(preds), len(ids))
	}
	for _, pr := range preds {
		if pr.Label == nil || pr.Reliable == nil {
			return fmt.Errorf("malformed reply: prediction without label or reliable")
		}
	}
	for j, pr := range preds {
		want := g.t.oracle[ids[j]]
		p.answered++
		if int32(*pr.Label) != want.label || *pr.Reliable != want.reliable {
			p.mismatched++
		}
		p.confDiff = math.Max(p.confDiff, math.Abs(pr.Confidence-want.conf))
		p.activatedSum += pr.Activated
		if pr.Activated > g.t.initialStage {
			p.escalated++
		}
	}
	return nil
}

// throughput is images answered 200 per second: the phase is cut into ten
// equal windows, the slowest and the fastest are dropped, and the other
// eight are averaged. Dropping the extremes keeps one stalled second on a
// shared box out of the number (total over wall time moved by 5 % on that);
// averaging the rest, instead of taking the median window, averages over
// the batching regimes a run passes through — across seeds the median
// window spread 4.5 %, this 1.5 %.
func (p *phase) throughput() float64 { return trimmedMean(p.windows()) }

// windows is the phase's ten window rates in images per second.
func (p *phase) windows() []float64 {
	sentAt := make([]float64, len(p.doneAt))
	for i, done := range p.doneAt {
		sentAt[i] = done - p.latency[i]
	}
	return windowRates(sentAt, p.doneAt, p.images, p.span.Seconds(), 10)
}

// sortedLatencyMS returns the latencies of the requests answered 200, in
// milliseconds, ascending.
func (p *phase) sortedLatencyMS() []float64 {
	ms := make([]float64, 0, len(p.latency))
	for i, l := range p.latency {
		if p.images[i] > 0 {
			ms = append(ms, l*1e3)
		}
	}
	sort.Float64s(ms)
	return ms
}
