// Package aarc is a from-scratch Go reproduction of "AARC: Automated
// Affinity-aware Resource Configuration for Serverless Workflows" (DAC
// 2025): decoupled CPU/memory configuration search for serverless workflow
// DAGs under end-to-end latency SLOs, with the paper's baselines (Bayesian
// optimization and MAFF gradient descent), a simulated serverless platform
// substrate, the three evaluation workloads, and a harness regenerating
// every table and figure of the paper's evaluation.
//
// The root package is the public facade; the implementation lives under
// internal/. The minimal flow is one call:
//
//	spec, _ := aarc.Workload("chatbot")          // or aarc.LoadSpec("wf.json")
//	rec, err := aarc.Configure(ctx, spec)        // runs the AARC search
//	fmt.Println(rec.Assignment, rec.Final.E2EMS) // config + validated run
//
// Configure is tuned with functional options: WithMethod selects any
// registered search method (aarc, bo, maff, random, grid — see Methods),
// WithSLO overrides the spec's latency target, WithBudget bounds the search
// by sample count or simulated time, WithProgress streams every sample as
// it is recorded, and WithSeed/WithHostCores/WithNoise control the
// simulated testbed. Cancelling the context stops the search at the next
// recorded sample and returns the partial recommendation with ctx.Err();
// an exhausted budget is a normal stop.
//
// ConfigureBatch answers many specs at once: one search per spec on a
// bounded worker pool (WithBatchWorkers), per-slot error isolation, and
// results identical to sequential Configure calls — batching changes
// wall time, never outcomes.
//
// Custom workflows are built in code from NewGraph, Profile and Spec (see
// examples/customworkflow) or shipped as JSON (DecodeSpec/EncodeSpec).
// Input-sensitive serving uses ConfigureClasses, which searches one
// configuration per input-size class and dispatches requests to them
// (examples/inputaware). Runner, obtained from NewRunner or
// Recommendation.Validate, evaluates assignments directly for serving and
// what-if flows.
//
// For long-lived serving, NewService builds the caching layer behind the
// aarcd daemon: Configure and Dispatch requests are answered from a
// pluggable recommendation Store keyed by content-addressed fingerprints
// (SpecFingerprint plus search options and the method's implementation
// version, so stale entries self-invalidate on a version bump),
// concurrent requests for the same workload share one search, and
// Validate/Evaluate run on a sharded runner pool; a Dispatch is the
// Configure at its input class's scale. The storage layer is swappable:
// the default is a bounded in-memory LRU (NewMemoryStore), WithCacheDir
// tiers it over durable disk storage (warm restarts with byte-identical
// hits), and WithStore accepts any Store implementation.
// Bursts of distinct workloads batch: Service.ConfigureBatch answers a
// list of requests as one admission (store hits immediately, in-batch
// repeats deduplicated, remaining misses searched by one pooled run with
// per-item error isolation). NewServiceHandler mounts the same HTTP API
// cmd/aarcd serves (/v1/configure, /v1/configure:batch,
// /v1/recommendation/{fingerprint} — the fingerprint-addressed fast
// path, GET to skip spec canonicalization entirely and DELETE to
// invalidate — /v1/dispatch, /v1/evaluate, /v1/methods, /healthz,
// /readyz).
//
// The serving layer degrades rather than fails: a WithCacheDir disk
// tier sits behind bounded retries and a circuit breaker with fixed
// settings, so a dead disk is skipped after 5 consecutive failures and
// the service serves memory-only until a half-open probe, 15s later,
// heals the tier; /readyz reports 503 while degraded or draining.
// WithSearchTimeout bounds each cold search server-side (timed-out
// searches fail and are never cached), WithMaxConcurrentSearches sheds
// excess cold traffic with HTTP 429 + Retry-After, and handler panics
// are recovered into JSON 500s. See DESIGN.md section 10.
//
// A Service writes its store only when a request does: a search's
// result is put, DELETE invalidates, and nothing runs in the background
// between requests. Each successful write is logged as one log/slog Info
// record, "store put" or "store invalidated", keyed by fingerprint, and
// GET /v1/recommendations lists what the store holds. See DESIGN.md
// section 11.
//
// The invariants all of the above rests on are checked two ways.
// Tier-1 tests pin those whose every site a test reaches: canonical
// bytes and fingerprints that are pure functions of content, method
// versions that move with their stored bodies, an alloc-free
// fingerprint GET, a service that leaks no goroutine, and the order of
// the disk tier's resilience stack, which one constructor
// (store.NewDurable) builds. cmd/aarcvet,
// a project-specific go/analysis suite run through `go vet -vettool`
// (scripts/lint.sh, and CI, fail on any finding), checks those that
// bind every function in the module: contexts threaded through the
// request path, no store I/O or searches under a mutex and no mutex
// taken while another is held, no store write on an error path,
// guaranteed-nil dereferences and shadowed variables. Deliberate
// exceptions are waived in-source by reasoned //aarc: markers. A
// stdlib-only CFG/dataflow layer (internal/analysis/flow) carries the
// two flow-sensitive checks. See DESIGN.md sections 13–14.
//
// Start with the examples, which use only this public API:
//
//	go run ./examples/quickstart
//	go run ./examples/searchcomparison
//	go run ./examples/inputaware
//	go run ./examples/customworkflow
//
// the experiment harness:
//
//	go run ./cmd/aarcbench all
//
// and the serving daemon:
//
//	go run ./cmd/aarcd -addr :8080
//
// Under internal/, internal/core is the paper's contribution (Graph-Centric
// Scheduler + Priority Configurator) and internal/search defines the
// context-aware Searcher contract and method registry every searcher
// implements. See DESIGN.md for the full system inventory and
// EXPERIMENTS.md for paper-versus-measured results.
package aarc
