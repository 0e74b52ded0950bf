// Package stream runs a PolygraphMR system over a stream of frames — the
// deployment shape of the paper's motivating applications (pedestrian
// identification, steering prediction; §I). It adds two things the
// single-image system does not have:
//
//   - temporal smoothing: consecutive frames of a stream are correlated, so
//     a sliding-window vote over recent reliable decisions suppresses
//     single-frame glitches and recovers some of the answers the per-frame
//     gate would escalate;
//   - deadline accounting: per-frame wall-clock latency is measured against
//     a budget (the §IV-C discussion's 100 ms), and misses are surfaced.
//
// Repeated frames — static scenes — are deduplicated by the system itself
// when it has a prediction cache attached (core.System.EnableCache).
package stream

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Source yields frames; Next reports false when the stream ends.
type Source interface {
	Next() (*tensor.T, bool)
}

// SliceSource replays a fixed set of frames.
type SliceSource struct {
	Frames []*tensor.T
	next   int
}

var _ Source = (*SliceSource)(nil)

// Next implements Source.
func (s *SliceSource) Next() (*tensor.T, bool) {
	if s.next >= len(s.Frames) {
		return nil, false
	}
	f := s.Frames[s.next]
	s.next++
	return f, true
}

// Classifier is anything that classifies one frame — satisfied by
// *core.System.
type Classifier interface {
	Classify(x *tensor.T) core.Decision
}

// BatchClassifier is a classifier that can process many frames per call —
// satisfied by *core.System, whose ClassifyBatch runs each member once over
// the whole batch. The processor uses this interface when Config.Batch > 1.
type BatchClassifier interface {
	Classifier
	ClassifyBatch(xs []*tensor.T) []core.Decision
}

// Config parameterizes the stream processor.
type Config struct {
	// Window is the sliding-window length for temporal smoothing;
	// 1 disables smoothing. Default 5.
	Window int
	// Budget is the per-frame latency budget; 0 disables deadline
	// accounting.
	Budget time.Duration
	// Batch, when > 1 and the classifier implements BatchClassifier,
	// drains the source in groups of Batch frames per classifier call —
	// the throughput mode. Per-frame latency is then the batch wall-clock
	// divided by the batch size. Smoothing and statistics are identical to
	// frame-at-a-time processing.
	Batch int
	// ObserveLatency, when non-nil, receives every frame's measured
	// classification latency. This is the feed a runtime policy controller
	// (internal/policy) steers by when a stream pipeline, rather than the
	// HTTP server, drives the system.
	ObserveLatency func(time.Duration)
	// now is injectable for tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 5
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Frame is the per-frame output of the processor.
type Frame struct {
	// Index is the frame's position in the stream.
	Index int
	// Decision is the raw per-frame system decision.
	Decision core.Decision
	// SmoothedLabel is the modal label among the window's reliable
	// decisions (the raw label when no reliable decision is in the window).
	SmoothedLabel int
	// SmoothedReliable reports whether the modal label holds a strict
	// majority of the window's reliable decisions.
	SmoothedReliable bool
	// Latency is the measured wall-clock classification time.
	Latency time.Duration
	// DeadlineMiss reports Latency > Budget (never set when Budget is 0).
	DeadlineMiss bool
}

// Stats aggregates a processed stream.
type Stats struct {
	Frames           int
	Reliable         int // raw per-frame reliable decisions
	SmoothedReliable int
	DeadlineMisses   int
	MeanActivated    float64
	MaxLatency       time.Duration
}

// Processor runs a classifier over sources with temporal smoothing.
type Processor struct {
	cfg Config
	sys Classifier

	window []core.Decision
}

// NewProcessor creates a stream processor.
func NewProcessor(sys Classifier, cfg Config) (*Processor, error) {
	if sys == nil {
		return nil, fmt.Errorf("stream: nil classifier")
	}
	return &Processor{cfg: cfg.withDefaults(), sys: sys}, nil
}

// Reset clears the smoothing window (call between independent streams).
func (p *Processor) Reset() { p.window = p.window[:0] }

// Process consumes the source, invoking handle (if non-nil) per frame, and
// returns aggregate statistics. With Config.Batch > 1 and a classifier
// implementing BatchClassifier, frames are classified in batches.
func (p *Processor) Process(src Source, handle func(Frame)) Stats {
	if p.cfg.Batch > 1 {
		if bc, ok := p.sys.(BatchClassifier); ok {
			return p.processBatched(bc, src, handle)
		}
	}
	var stats Stats
	totalActivated := 0
	for {
		x, ok := src.Next()
		if !ok {
			break
		}
		start := p.cfg.now()
		d := p.sys.Classify(x)
		p.emit(d, p.cfg.now().Sub(start), &stats, &totalActivated, handle)
	}
	finalize(&stats, totalActivated)
	return stats
}

// processBatched drains the source Config.Batch frames at a time. Decisions
// and smoothing are identical to frame-at-a-time processing; the measured
// latency of each frame is its batch's wall-clock divided by the batch
// size (the steady-state per-frame cost of the pipelined deployment).
func (p *Processor) processBatched(bc BatchClassifier, src Source, handle func(Frame)) Stats {
	var stats Stats
	totalActivated := 0
	buf := make([]*tensor.T, 0, p.cfg.Batch)
	for {
		buf = buf[:0]
		for len(buf) < p.cfg.Batch {
			x, ok := src.Next()
			if !ok {
				break
			}
			buf = append(buf, x)
		}
		if len(buf) == 0 {
			break
		}
		start := p.cfg.now()
		ds := bc.ClassifyBatch(buf)
		perFrame := p.cfg.now().Sub(start) / time.Duration(len(buf))
		for _, d := range ds {
			p.emit(d, perFrame, &stats, &totalActivated, handle)
		}
		if len(buf) < p.cfg.Batch {
			break // source exhausted mid-batch
		}
	}
	finalize(&stats, totalActivated)
	return stats
}

// emit applies smoothing, deadline accounting and statistics for one
// decision — the per-frame bookkeeping shared by both processing modes.
func (p *Processor) emit(d core.Decision, latency time.Duration, stats *Stats, totalActivated *int, handle func(Frame)) {
	if p.cfg.ObserveLatency != nil {
		p.cfg.ObserveLatency(latency)
	}
	p.window = append(p.window, d)
	if len(p.window) > p.cfg.Window {
		p.window = p.window[1:]
	}
	smoothedLabel, smoothedReliable := p.smooth(d)

	f := Frame{
		Index:            stats.Frames,
		Decision:         d,
		SmoothedLabel:    smoothedLabel,
		SmoothedReliable: smoothedReliable,
		Latency:          latency,
	}
	if p.cfg.Budget > 0 && latency > p.cfg.Budget {
		f.DeadlineMiss = true
		stats.DeadlineMisses++
	}
	stats.Frames++
	if d.Reliable {
		stats.Reliable++
	}
	if smoothedReliable {
		stats.SmoothedReliable++
	}
	*totalActivated += d.Activated
	if latency > stats.MaxLatency {
		stats.MaxLatency = latency
	}
	if handle != nil {
		handle(f)
	}
}

func finalize(stats *Stats, totalActivated int) {
	if stats.Frames > 0 {
		stats.MeanActivated = float64(totalActivated) / float64(stats.Frames)
	}
}

// smooth computes the windowed label: the modal label among reliable
// decisions in the window, reliable when it holds a strict majority of
// them. Falls back to the current raw label when the window holds no
// reliable decision.
func (p *Processor) smooth(current core.Decision) (int, bool) {
	votes := map[int]int{}
	reliable := 0
	for _, d := range p.window {
		if d.Reliable {
			votes[d.Label]++
			reliable++
		}
	}
	if reliable == 0 {
		return current.Label, false
	}
	best, bestVotes := current.Label, -1
	for label, v := range votes {
		if v > bestVotes || (v == bestVotes && label < best) {
			best, bestVotes = label, v
		}
	}
	return best, 2*bestVotes > reliable
}
