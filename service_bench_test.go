// Serving-layer benchmarks behind EXPERIMENTS.md §"Serving". Cold measures
// a full search per request (distinct fingerprints); CacheHit measures the
// steady-state hot path (same fingerprint, parallel clients); the load
// loop reports p50/p99 cache-hit latency over the HTTP handler.
//
//	go test -bench=BenchmarkServiceConfigure -benchtime=100x
package aarc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"aarc"
)

func benchService(b *testing.B) *aarc.Service {
	b.Helper()
	svc, err := aarc.NewService(
		aarc.WithSeed(benchSeed),
		aarc.WithCacheSize(4096),
	)
	if err != nil {
		b.Fatal(err)
	}
	return svc
}

func benchSpec(b *testing.B) *aarc.Spec {
	b.Helper()
	spec, err := aarc.Workload("chatbot")
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// BenchmarkServiceConfigure compares the two regimes of the serving layer
// on the Chatbot workload with the default AARC search.
func BenchmarkServiceConfigure(b *testing.B) {
	b.Run("Cold", func(b *testing.B) {
		svc := benchService(b)
		spec := benchSpec(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh seed per iteration is a fresh fingerprint: every
			// request pays a full search.
			seed := uint64(i + 1)
			_, hit, err := svc.Configure(context.Background(), spec, aarc.ServiceRequest{Seed: &seed})
			if err != nil {
				b.Fatal(err)
			}
			if hit {
				b.Fatal("cold iteration hit the cache")
			}
		}
	})
	b.Run("CacheHit", func(b *testing.B) {
		svc := benchService(b)
		spec := benchSpec(b)
		if _, _, err := svc.Configure(context.Background(), spec, aarc.ServiceRequest{}); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				_, hit, err := svc.Configure(context.Background(), spec, aarc.ServiceRequest{})
				if err != nil {
					b.Fatal(err)
				}
				if !hit {
					b.Fatal("expected a cache hit")
				}
			}
		})
	})
}

// BenchmarkServiceConfigureBatch measures batch admission on a cold burst
// of distinct fingerprints — the regime the batcher exists for. Every
// iteration mints `burst` fresh seeds (fresh fingerprints: every item
// pays a full search) and answers them either as sequential singleton
// Configure calls or as one ConfigureBatch; with enough cores the batched
// run completes in ≈ max(single-search) wall time rather than ≈ the sum,
// so ns/op is the whole comparison.
//
//	go test -bench=BenchmarkServiceConfigureBatch -benchtime=20x -run='^$' .
func BenchmarkServiceConfigureBatch(b *testing.B) {
	const burst = 8
	b.Run("SequentialSingletons", func(b *testing.B) {
		svc := benchService(b)
		spec := benchSpec(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < burst; j++ {
				seed := uint64(i*burst + j + 1)
				_, hit, err := svc.Configure(context.Background(), spec, aarc.ServiceRequest{Seed: &seed})
				if err != nil {
					b.Fatal(err)
				}
				if hit {
					b.Fatal("cold iteration hit the cache")
				}
			}
		}
	})
	b.Run("Batched", func(b *testing.B) {
		svc := benchService(b)
		spec := benchSpec(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			items := make([]aarc.ServiceBatchItem, burst)
			for j := range items {
				seed := uint64(i*burst + j + 1)
				items[j] = aarc.ServiceBatchItem{Spec: spec, Options: aarc.ServiceRequest{Seed: &seed}}
			}
			results, err := svc.ConfigureBatch(context.Background(), items)
			if err != nil {
				b.Fatal(err)
			}
			for _, res := range results {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
				if res.CacheHit {
					b.Fatal("cold batch item hit the cache")
				}
			}
		}
	})
}

// BenchmarkServiceFingerprintGet measures the fingerprint-addressed fast
// path against the POST-configure hit paths it bypasses. Direct is the
// store lookup itself (no HTTP); HTTPGet, HTTPPostHit and
// HTTPPostHitInline drive the handler. HTTPPostHit names a built-in
// workload, so it builds and canonicalizes the workload's spec;
// HTTPPostHitInline posts a 32-node Scale spec inline, compacted as
// aarcload sends it, so its difference from HTTPGet is what the spec
// body costs per hit: the strict read, the canonical bytes written from
// it and their hash. HTTPPostHitInlineDisk posts two 32-node specs in
// turn to a service over a cache directory whose memory tier holds one
// entry, so every hit reads, verifies and promotes its entry from disk,
// as each configure of a restart does.
func BenchmarkServiceFingerprintGet(b *testing.B) {
	svc := benchService(b)
	ts := httptest.NewServer(aarc.NewServiceHandler(svc))
	defer ts.Close()
	spec := benchSpec(b)
	rec, _, err := svc.Configure(context.Background(), spec, aarc.ServiceRequest{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := svc.RecommendationJSON(rec.Fingerprint); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HTTPGet", func(b *testing.B) {
		url := ts.URL + "/v1/recommendation/" + rec.Fingerprint
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})
	postHit := func(b *testing.B, body string) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/configure", "application/json", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Aarc-Cache") != "hit" {
				b.Fatalf("status %d, X-Aarc-Cache %q", resp.StatusCode, resp.Header.Get("X-Aarc-Cache"))
			}
		}
	}
	b.Run("HTTPPostHit", func(b *testing.B) {
		postHit(b, `{"workload": "chatbot"}`)
	})
	b.Run("HTTPPostHitInline", func(b *testing.B) {
		scale, err := aarc.ScaleWorkload(aarc.ScaleOptions{Topology: "layered", Nodes: 32, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := svc.Configure(context.Background(), scale, aarc.ServiceRequest{}); err != nil {
			b.Fatal(err)
		}
		var pretty, compact bytes.Buffer
		if err := aarc.EncodeSpec(&pretty, scale); err != nil {
			b.Fatal(err)
		}
		if err := json.Compact(&compact, pretty.Bytes()); err != nil {
			b.Fatal(err)
		}
		postHit(b, `{"spec":`+compact.String()+`}`)
	})
	b.Run("HTTPPostHitInlineDisk", func(b *testing.B) {
		svc, err := aarc.NewService(aarc.WithSeed(benchSeed), aarc.WithCacheDir(b.TempDir()), aarc.WithCacheSize(1))
		if err != nil {
			b.Fatal(err)
		}
		defer svc.Close()
		ts := httptest.NewServer(aarc.NewServiceHandler(svc))
		defer ts.Close()
		var bodies [2]string
		for i := range bodies {
			scale, err := aarc.ScaleWorkload(aarc.ScaleOptions{Topology: "layered", Nodes: 32, Seed: uint64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := svc.Configure(context.Background(), scale, aarc.ServiceRequest{}); err != nil {
				b.Fatal(err)
			}
			var pretty, compact bytes.Buffer
			if err := aarc.EncodeSpec(&pretty, scale); err != nil {
				b.Fatal(err)
			}
			if err := json.Compact(&compact, pretty.Bytes()); err != nil {
				b.Fatal(err)
			}
			bodies[i] = `{"spec":` + compact.String() + `}`
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/configure", "application/json", strings.NewReader(bodies[i%2]))
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Aarc-Cache") != "hit" {
				b.Fatalf("status %d, X-Aarc-Cache %q", resp.StatusCode, resp.Header.Get("X-Aarc-Cache"))
			}
		}
	})
}

// BenchmarkServiceHTTPLoad drives the full HTTP handler with a small load
// loop — 8 concurrent clients, one shared fingerprint after the first
// request — and reports cache-hit latency percentiles alongside the
// aggregate request rate.
func BenchmarkServiceHTTPLoad(b *testing.B) {
	svc := benchService(b)
	ts := httptest.NewServer(aarc.NewServiceHandler(svc))
	defer ts.Close()
	body := `{"workload": "chatbot"}`
	post := func() error {
		resp, err := http.Post(ts.URL+"/v1/configure", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	if err := post(); err != nil { // prime the cache (the one cold search)
		b.Fatal(err)
	}

	const clients = 8
	var mu sync.Mutex
	latencies := make([]time.Duration, 0, b.N)
	work := make(chan struct{})
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				t0 := time.Now()
				if err := post(); err != nil {
					b.Error(err)
					return
				}
				d := time.Since(t0)
				mu.Lock()
				latencies = append(latencies, d)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < b.N; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		b.ReportMetric(float64(n)/elapsed.Seconds(), "req/s")
		b.ReportMetric(float64(latencies[n/2].Microseconds()), "p50-µs")
		b.ReportMetric(float64(latencies[n*99/100].Microseconds()), "p99-µs")
	}
}
