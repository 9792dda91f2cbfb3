// Command aarcd is the long-lived configuration service: an HTTP daemon
// over the serving layer (internal/service) that answers configuration
// searches from a fingerprint-keyed recommendation cache and dispatches
// input-aware requests to the configure at their input class's scale (§IV-D).
//
// Usage:
//
//	aarcd                              # listen on :8080 with defaults
//	aarcd -addr :9090 -max-samples 200 # cap server-side search work
//	aarcd -cache-dir /var/lib/aarc     # durable cache: warm restarts
//
// With -cache-dir the recommendation store is tiered — a bounded memory
// tier over one-file-per-fingerprint disk storage, written through on
// every search and warmed back into memory on start — so a restarted
// daemon answers its predecessor's fingerprints as byte-identical cache
// hits without re-searching.
//
// POST /v1/configure:batch answers a list of configure requests as one
// admission: store hits immediately, repeats deduplicated within the
// batch, and all remaining misses searched by one -batch-workers-wide
// pooled run with per-item error isolation.
//
// The daemon degrades rather than fails: the disk tier (when present)
// sits behind a retry wrapper and a circuit breaker with fixed
// settings, so a failing disk opens the breaker after 5 consecutive
// errors and the service keeps serving from memory; /readyz answers 503
// while degraded (and while draining on shutdown) so balancers route
// elsewhere, then recovers via a half-open probe after 15s. Cold
// searches are bounded by -search-timeout and capped by
// -max-concurrent-searches (excess requests are shed with 429 +
// Retry-After).
//
// Only a request writes the store, and stderr carries one line per
// successful write, the store's change record:
//
//	aarcd: INFO store put fingerprint=sha256:...
//	aarcd: INFO store invalidated fingerprint=sha256:...
//
// Endpoints (see DESIGN.md §"Storage tiers" and the README for curl
// examples):
//
//	GET    /healthz                 liveness + cache/store stats
//	GET    /readyz                  readiness: 503 while draining or breaker-open
//	GET    /v1/methods              the search method registry (+versions)
//	POST   /v1/configure            {"workload":"chatbot"} or {"spec":{...}} -> recommendation
//	POST   /v1/configure:batch      {"requests":[...]} -> per-item results, misses pooled
//	GET    /v1/recommendation/{fp}  fingerprint-addressed fast path (no spec body)
//	DELETE /v1/recommendation/{fp}  explicit invalidation across all tiers
//	GET    /v1/recommendations      listing of what the store holds
//	POST   /v1/dispatch             {"workload":"video-analysis","scale":1.4} -> class + config
//	POST   /v1/evaluate             {"fingerprint":"sha256:...","runs":10} -> what-if runs
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"aarc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aarcd: ")

	var (
		addr       = flag.String("addr", ":8080", "listen address")
		method     = flag.String("method", "aarc", "default search method (see /v1/methods)")
		seed       = flag.Uint64("seed", 42, "default simulator+searcher seed")
		hostCores  = flag.Float64("cores", 96, "host CPU capacity shared by concurrent containers")
		noNoise    = flag.Bool("no-noise", false, "disable the simulator's measurement noise")
		cacheSize  = flag.Int("cache-size", 128, "max in-memory recommendations (LRU)")
		cacheDir   = flag.String("cache-dir", "", "durable recommendation store directory (empty = memory only)")
		shards     = flag.Int("shards", 0, "runners per entry's evaluation pool (0 = GOMAXPROCS)")
		maxSamples = flag.Int("max-samples", 0, "server-side per-search sample cap (0 = unlimited)")
		maxSimMS   = flag.Float64("max-sim-cost-ms", 0, "server-side simulated-time cap per search (0 = unlimited)")
		batchWork  = flag.Int("batch-workers", 0, "concurrent searches per batched configure run (0 = GOMAXPROCS)")

		searchTimeout = flag.Duration("search-timeout", 0, "server-side deadline per cold search; timed-out searches fail, never cached (0 = unbounded)")
		maxSearches   = flag.Int("max-concurrent-searches", 0, "cold searches allowed at once; excess singleton misses get 429 + Retry-After (0 = unlimited)")

		readTimeout  = flag.Duration("read-timeout", time.Minute, "http.Server ReadTimeout: full request (headers+body) read deadline")
		writeTimeout = flag.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout: response write deadline; bounds a request's total service time")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout: keep-alive connection idle deadline")
	)
	flag.Parse()

	svc, err := aarc.NewService(
		aarc.WithMethod(*method),
		aarc.WithSeed(*seed),
		aarc.WithHostCores(*hostCores),
		aarc.WithNoise(!*noNoise),
		aarc.WithCacheSize(*cacheSize),
		aarc.WithCacheDir(*cacheDir),
		aarc.WithShards(*shards),
		aarc.WithBatchWorkers(*batchWork),
		aarc.WithSearchTimeout(*searchTimeout),
		aarc.WithMaxConcurrentSearches(*maxSearches),
		aarc.WithBudget(aarc.Budget{
			MaxSamples: *maxSamples,
			// Scale before converting: time.Duration(*maxSimMS) would
			// truncate fractional milliseconds to zero ( = unlimited).
			MaxSimCost: time.Duration(*maxSimMS * float64(time.Millisecond)),
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	// Durable tiers are written through at Put time; Close only releases
	// the store (there is no persistence step to lose on SIGKILL).
	defer svc.Close()

	// A search can legitimately take a while, so WriteTimeout (which
	// bounds the whole response, search included) defaults generously;
	// tighten it together with -search-timeout. Zero on any of these
	// flags disables that deadline, matching net/http.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           aarc.NewServiceHandler(svc),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	shardsDesc := "GOMAXPROCS"
	if *shards > 0 {
		shardsDesc = strconv.Itoa(*shards)
	}
	stats := svc.Stats()
	if *cacheDir != "" {
		log.Printf("durable store %s: warmed %d entries from %s", stats.Store, stats.Tiers["memory"], *cacheDir)
	}
	log.Printf("serving on %s (method=%s store=%s cache=%d shards=%s)", *addr, *method, stats.Store, *cacheSize, shardsDesc)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		log.Print("shutting down")
		// Flip /readyz to 503 first so balancers stop routing here, then
		// let Shutdown finish the in-flight requests.
		svc.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			log.Fatal(err)
		}
	}
}
