package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	polygraph "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/server/telemetry"
	"repro/internal/tensor"
)

func init() {
	register("ext-serving", ExtServing)
}

// servingBackend adapts a zoo-built core.System to the server.Backend
// interface, so the serving experiment reuses the Context's trained members
// instead of rebuilding through polygraph.Build.
type servingBackend struct {
	sys     *core.System
	inShape []int
}

func (b servingBackend) InputShape() (int, int, int) {
	return b.inShape[0], b.inShape[1], b.inShape[2]
}

func (b servingBackend) ClassifyBatchContext(ctx context.Context, images []polygraph.Image) ([]polygraph.Prediction, error) {
	xs := make([]*tensor.T, len(images))
	for i, im := range images {
		xs[i] = tensor.FromSlice(im.Pixels, im.Channels, im.Height, im.Width)
	}
	ds, err := b.sys.ClassifyBatchContext(ctx, xs)
	if err != nil {
		return nil, err
	}
	preds := make([]polygraph.Prediction, len(ds))
	for i, d := range ds {
		preds[i] = polygraph.Prediction{
			Label: d.Label, Reliable: d.Reliable, Confidence: d.Confidence,
			Activated: d.Activated, Agreement: d.Votes[d.Label],
		}
	}
	return preds, nil
}

// ExtServing is an extension beyond the paper's figures: it stands up the
// HTTP serving subsystem (dynamic batching + admission control) on
// localhost, drives it with closed-loop concurrent clients, and reports
// end-to-end throughput and latency percentiles per concurrency level.
// The paper's §IV-C
// latency-budget discussion is about exactly this deployment shape: how
// much wall-clock the redundant system costs once requests arrive over a
// network interface instead of a benchmark loop.
func ExtServing(ctx *Context) (*Result, error) {
	b, err := model.ByName("convnet")
	if err != nil {
		return nil, err
	}
	design, err := ctx.Design(b, 4)
	if err != nil {
		return nil, err
	}
	sys, err := core.BuildSystem(ctx.Zoo, b, design.Variants)
	if err != nil {
		return nil, err
	}
	sys.Workers = ctx.Workers

	ds, err := ctx.Zoo.Dataset(b.DatasetName)
	if err != nil {
		return nil, err
	}
	n := len(ds.Test)
	if n > 64 {
		n = 64
	}
	images := make([]polygraph.Image, n)
	for i := 0; i < n; i++ {
		s := ds.Test[i]
		images[i] = polygraph.Image{
			Channels: s.X.Shape[0], Height: s.X.Shape[1], Width: s.X.Shape[2],
			Pixels: s.X.Data,
		}
	}

	metrics := telemetry.NewMetrics(len(sys.Members))
	srv, err := server.New(server.Config{
		Backend:    servingBackend{sys: sys, inShape: ds.InShape},
		MaxBatch:   32,
		QueueDepth: 1024,
		Metrics:    metrics,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(dctx)
		_ = hs.Shutdown(dctx)
	}()

	requests := 150
	if ctx.Profile() == dataset.Full {
		requests = 1000
	}

	res := &Result{
		ID: "ext-serving", Title: "HTTP serving throughput/latency by client concurrency (extension; dynamic batching over localhost)",
		Header: []string{"clients", "requests", "ok", "rejected", "img/s", "p50", "p90", "p99", "max"},
	}
	for _, clients := range []int{1, 4, 16} {
		lr, err := server.RunLoad(context.Background(), server.LoadConfig{
			URL: base, Images: images, Concurrency: clients, Requests: requests,
		})
		if err != nil {
			return nil, err
		}
		if lr.Failed > 0 {
			return nil, fmt.Errorf("ext-serving: %d requests failed at concurrency %d", lr.Failed, clients)
		}
		res.AddRow(fmt.Sprint(clients), fmt.Sprint(lr.Requests), fmt.Sprint(lr.OK),
			fmt.Sprint(lr.Rejected), fmt.Sprintf("%.1f", lr.ImagesPerSec),
			lr.P50.Round(10*time.Microsecond).String(), lr.P90.Round(10*time.Microsecond).String(),
			lr.P99.Round(10*time.Microsecond).String(), lr.Max.Round(10*time.Microsecond).String())
	}
	res.AddNote("4-member %s system served at %s; batch window 2ms, max batch 32", b.Name, base)
	res.AddNote("batcher: %d batches over %d images (%d coalesced, largest-bucket histogram in /metrics); decisions: %d reliable / %d escalated",
		metrics.Batches.Value(), metrics.Images.Value(), metrics.Coalesced.Value(),
		metrics.Reliable.Value(), metrics.Escalated.Value())
	return res, nil
}
