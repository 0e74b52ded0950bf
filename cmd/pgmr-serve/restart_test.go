package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"
	"time"

	polygraph "repro"
	"repro/internal/server"
)

// TestServeRestartWarm is the serving-level restart smoke: a server with a
// persistent cache tier is warmed, drained the way the SIGTERM path drains
// (BeginDrain → Drain → System.Close), and a fresh server built against the
// same -cache-dir must answer the warmed traffic from cache — X-PGMR-Cache
// hits backed by L2 promotions visible in /metrics.
func TestServeRestartWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real benchmark system")
	}
	dir := t.TempDir()
	images, _, err := polygraph.TestImages("convnet", 8)
	if err != nil {
		t.Fatal(err)
	}

	build := func() (*polygraph.System, *server.Server, *httptest.Server) {
		sys, err := polygraph.Build("convnet", polygraph.Options{
			Quiet: true,
			Cache: &polygraph.CacheOptions{MaxBytes: 32 << 20, Dir: dir},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{Backend: sys})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return sys, srv, ts
	}
	classify := func(ts *httptest.Server, im polygraph.Image) (string, error) {
		req := map[string]any{"image": map[string]any{
			"channels": im.Channels, "height": im.Height, "width": im.Width, "pixels": im.Pixels,
		}}
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		return resp.Header.Get("X-PGMR-Cache"), nil
	}

	// First process: warm every image, drain, close.
	sys, srv, ts := build()
	for pass := 0; pass < 2; pass++ {
		for _, im := range images {
			if _, err := classify(ts, im); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Second process: same directory, fresh memory. Every warmed image must
	// be a cache hit on its first request.
	sys2, _, ts2 := build()
	defer sys2.Close()
	for i, im := range images {
		h, err := classify(ts2, im)
		if err != nil {
			t.Fatal(err)
		}
		if h != "hit" {
			t.Fatalf("image %d after restart: X-PGMR-Cache=%q, want hit", i, h)
		}
	}
	st := sys2.CacheStats()
	if st.L2Recovered == 0 || st.L2Hits == 0 {
		t.Fatalf("restart cache stats %+v; want recovered entries and L2 promotions", st)
	}

	// The L2 gauges surface on /metrics.
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exp, _ := io.ReadAll(resp.Body)
	// (l2_flushed stays 0 here: the restarted process recovered its entries
	// rather than flushing new ones.)
	for _, metric := range []string{"pgmr_cache_l2_hits", "pgmr_cache_l2_entries", "pgmr_cache_l2_bytes"} {
		re := regexp.MustCompile(`(?m)^` + metric + ` (\d+)$`)
		m := re.FindSubmatch(exp)
		if m == nil {
			t.Fatalf("metric %s missing from /metrics", metric)
		}
		if v, _ := strconv.Atoi(string(m[1])); v <= 0 {
			t.Errorf("%s = %d, want > 0", metric, v)
		}
	}
}
