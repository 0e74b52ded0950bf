package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	polygraph "repro"
	"repro/internal/server"
	"repro/internal/server/telemetry"
)

// node is one serving process's worth of state: the system, the real
// internal/server handler over it, and a loopback listener.
type node struct {
	sys     *polygraph.System
	srv     *server.Server
	hs      *http.Server
	url     string
	metrics *telemetry.Metrics
}

// deployment is the topology a workload runs against: one node, or the
// pgmr-cluster arrangement of several in-process nodes on loopback.
type deployment struct {
	nodes []*node
}

// oracleOptions is what the oracle is built with: the served configuration
// without cache or cluster.
func (w workload) oracleOptions() polygraph.Options {
	return polygraph.Options{Members: members, Backend: w.backend, Quiet: true}
}

// options is what every serving node is built with (bringUp adds the
// cluster membership).
func (w workload) options() polygraph.Options {
	opts := w.oracleOptions()
	if w.cacheBytes > 0 {
		opts.Cache = &polygraph.CacheOptions{MaxBytes: w.cacheBytes}
	}
	return opts
}

// bringUp builds the workload's systems and starts serving; it returns once
// every node's listener answers /readyz. With a tracer the handler and the
// backend are wrapped at their seams; without one nothing of the harness
// sits in the request path.
func bringUp(w workload, tr *tracer) (*deployment, error) {
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			d.shutdown()
		}
	}()

	peers := map[string]string{}
	peerLns := make([]net.Listener, w.nodes)
	ids := make([]string, w.nodes)
	if w.nodes > 1 {
		// Bind every peer listener first, so the shared membership map
		// carries real ports before any system is built.
		for i := range peerLns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			peerLns[i] = ln
			ids[i] = fmt.Sprintf("n%d", i)
			peers[ids[i]] = ln.Addr().String()
		}
	}
	for i := 0; i < w.nodes; i++ {
		metrics := telemetry.NewMetrics(members)
		opts := w.options()
		if w.nodes > 1 {
			observe := metrics.ObserveForward
			if tr != nil {
				observe = func(dur time.Duration, ok bool) {
					tr.forward(dur, ok)
					metrics.ObserveForward(dur, ok)
				}
			}
			opts.Cluster = &polygraph.ClusterOptions{
				NodeID: ids[i], Peers: peers, Listener: peerLns[i], ObserveForward: observe,
			}
		}
		sys, err := polygraph.Build(benchmarkName, opts)
		if err != nil {
			return nil, fmt.Errorf("building node %d: %w", i, err)
		}
		n := &node{sys: sys, metrics: metrics}
		d.nodes = append(d.nodes, n)
		var backend server.Backend = sys
		if tr != nil {
			backend = &tracedBackend{System: sys, tr: tr}
		}
		// pgmr-serve defaults: 5 ms window, max batch 64, queue depth 256.
		n.srv, err = server.New(server.Config{Backend: backend, Metrics: metrics})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		handler := n.srv.Handler()
		if tr != nil {
			handler = &tracedHandler{inner: handler, tr: tr}
		}
		n.hs = &http.Server{Handler: handler}
		n.url = "http://" + ln.Addr().String()
		go n.hs.Serve(ln) // returns ErrServerClosed at Shutdown
	}
	for _, n := range d.nodes {
		resp, err := http.Get(n.url + "/readyz")
		if err != nil {
			return nil, fmt.Errorf("node not ready: %w", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("node not ready: /readyz answered %d", resp.StatusCode)
		}
	}
	ok = true
	return d, nil
}

// shutdown drains every node the way pgmr-cluster does: HTTP first, then
// the batcher, then the system (cluster transport and cache).
func (d *deployment) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, n := range d.nodes {
		if n.srv != nil {
			n.srv.BeginDrain()
		}
		if n.hs != nil {
			errs = append(errs, n.hs.Shutdown(ctx))
		}
		if n.srv != nil {
			errs = append(errs, n.srv.Drain(ctx))
		}
		errs = append(errs, n.sys.Close())
	}
	return errors.Join(errs...)
}

// counters is a snapshot of the cumulative counts the harness reads from
// outside the server: its own telemetry bundle, CacheStats and
// ClusterStats, summed over the nodes.
type counters struct {
	batches, batchedImages, rejected, requests uint64
	queueWaitSum                               float64
	queueWaitN                                 uint64
	probeHits, probeMisses                     uint64
	coalesced, evictions, expired              uint64
	entries                                    int
	owned, forwarded, fallback, forwardErrors  uint64
}

func (d *deployment) counters() counters {
	var c counters
	for _, n := range d.nodes {
		m := n.metrics
		c.batches += m.Batches.Value()
		c.batchedImages += m.Images.Value()
		c.rejected += m.Rejected.Value()
		c.requests += m.Requests.Value()
		c.queueWaitSum += m.QueueWait.Sum()
		c.queueWaitN += m.QueueWait.Count()
		c.probeHits += m.CacheHits.Value()
		c.probeMisses += m.CacheMisses.Value()
		cs := n.sys.CacheStats()
		c.coalesced += cs.Coalesced
		c.evictions += cs.Evictions
		c.expired += cs.Expired
		c.entries += cs.Entries
		cl := n.sys.ClusterStats()
		c.owned += cl.Owned
		c.forwarded += cl.Forwarded
		c.fallback += cl.Fallback
		c.forwardErrors += cl.ForwardErrors
	}
	return c
}

// inserts is the number of decisions stored since the caches were empty:
// what is live plus what was dropped. Every ensemble pass ends in exactly
// one insert, so this counts computations.
func (c counters) inserts() uint64 {
	return uint64(c.entries) + c.evictions + c.expired
}
