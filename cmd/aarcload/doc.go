// Command aarcload is the repository's benchmark. It serves the
// configuration service the way cmd/aarcd does at its flag defaults
// (aarc.NewService with seed 42, 96 host cores, noise on, cache size 128
// unless the workload says otherwise, a real http.Server on 127.0.0.1:0
// with aarcd's timeouts) and drives it over loopback HTTP with traffic
// generated from a seed. Load comes from the same process: one dispatcher
// goroutine and runtime.NumCPU() senders sharing one http.Transport with
// MaxConnsPerHost = NumCPU.
//
// It is a module of its own whose go.mod points at the tree it sits in, so
// that the same benchmark code, copied into a checkout of a parent commit,
// measures that commit. The repository's go test ./... therefore does not
// reach it; its tests run from this directory:
//
//	cd cmd/aarcload && go test -race ./...
//
// Run it from the repository root through run.sh, which builds it and
// keeps every build product under $CARGO_TARGET_DIR (default .bench_build):
//
//	bash cmd/aarcload/run.sh -seed 1                   # every workload, each in a child process
//	bash cmd/aarcload/run.sh -seed 1 -repeat 5         # medians and quartiles over 5 runs
//	bash cmd/aarcload/run.sh -seed 1 -trace 1 -trace-dir out  # untraced and traced: per-layer metrics, overhead
//	bash cmd/aarcload/run.sh --workload cold-unique --seed 2 --seconds 12 --trace 0
//
// A run of one workload prints its metrics, then as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics": {name: {value,
// unit}}}, the metrics being the end-to-end ones BENCHMARK.json bounds, or
// with -trace 1 the per-layer ones. It exits non-zero when any check
// failed. -json FILE also writes every metric, the unresolved ones
// included, with the git sha, Go version, nproc, GOMAXPROCS, CPU model,
// seed and rates. Seed 1 is the development seed; seed 2 is held out.
//
// # Phases
//
// A run of -seconds S (the default and BENCHMARK.json's S = 12):
//
//  1. inputs: specs, bodies, popularity draws and arrival times, all from
//     the seed; durable-churn also stores its on-disk fixture and the
//     quality set. Untimed.
//  2. setup, 7 times: service construction until /readyz answers 200,
//     including the disk index scan and warm on durable-churn, then the
//     quality set: 40 specs drawn from a fixed seed, 8 to 64 nodes, each
//     configured once over HTTP. setup_s is the median. On the memory
//     store every setup starts empty and searches the set; on
//     durable-churn every setup serves it from the disk as hits. Every
//     setup must recommend the same for the quality set. The last service
//     serves the load.
//  3. prime: the memory-store workloads configure their fixture. Untimed.
//  4. warm-up: S/9 of the open loop, checked and discarded.
//  5. open loop: 20S/27 of Poisson arrivals at the workload's fixed rate.
//     Each request is timed from its due time to its last body byte, so a
//     stall counts against every request it delays (no coordinated
//     omission).
//  6. closed loop: 7S/27 in which every sender sends its next request as
//     soon as the last answered. Its pool holds twice what the open loop's
//     CPU per request would let every core complete; a build fast enough
//     to drain it ends the phase early.
//  7. probe: sampled served specs are re-run through each layer's public
//     functions directly, and each served assignment must equal a direct
//     Searcher.Search. A traced run times up to 200; an untraced run
//     checks 16.
//
// At S = 27 the phases are 3 s, 20 s and 7 s. BENCHMARK.json runs S = 12,
// 15 to 18 s a run with its inputs and setups, which still gives every
// workload at least 1 200 open-loop samples. Its only bounded timing,
// setup_s, moves with the host rather than with the run's length: on a
// 2-core KVM guest the median of ten runs shifted by up to 49 % between
// two rounds twenty minutes apart, and by under 15 % in most pairs of
// rounds a few minutes apart, so shorter runs keep two rounds closer.
//
// # Workloads
//
// Each rate is about 30 % of the workload's capacity_rps on a 2-core x86
// host (Go 1.24).
//
//   - hit-repeat (1500 req/s, memory store): 64 configured workloads.Scale
//     specs, families round robin, 16/32/64 nodes by popularity rank;
//     Zipf(1.1) popularity; half inline-spec POST /v1/configure with the
//     configured body byte for byte, half GET /v1/recommendation/{fp}. A
//     configuration service's steady state: every cost is HTTP, spec
//     decoding, canonical JSON, SHA-256 and a memory-store lookup; there is
//     no search. Bodies repeat, so a body-to-fingerprint memo would act
//     here. Sizes stop at 64 nodes because larger specs cannot be served:
//     from 80 nodes up fanout specs are often refused (their base
//     configuration misses the SLO at 96 host cores), and a 112- or
//     256-node layered search can allocate more than 1.4 GB enumerating
//     detour subpaths.
//   - cold-unique (170 req/s, memory store): every request configures a
//     spec never sent before, families round robin, node counts uniform
//     over 8 to 64 (every block of 57 requests holds each count once). The
//     paper's own path, the first configuration of a new workflow: search,
//     runner compile and simulator evaluations. Bodies never repeat, so a
//     body memo must show no change here.
//   - durable-churn (830 req/s, tiered store as aarcd -cache-dir
//     -cache-size 32 builds it, over 448 32-node entries a previous
//     service stored): 80 % GETs uniform over the 448, 15 % POSTs of
//     churned copies (one node inserted, with the SLO relaxed by half, or
//     one edge rewired: a search and an fsynced write), 5 % DELETEs. The
//     k-th DELETE removes the entry the k-th churned POST made, once that
//     POST has answered; 64 delete-only fixture entries would last under
//     two seconds at this rate. The working set is 14 times the
//     memory tier, so disk reads, promotion, eviction and the
//     retry/breaker tiers all run. A store change that trades reads for
//     writes shows here and nowhere else.
//   - whatif-batch (160 req/s, memory store): 16 configured 32-node specs;
//     60 % POST /v1/evaluate, half with 16 runs and half with 64, half
//     under the recommendation and half with one group's CPU moved one grid
//     step; 40 % POST /v1/configure:batch of 8 items: 4 fixture hits, 2
//     copies of one new spec and 2 other new specs. The only workload that
//     runs the sharded runner pool and the pooled, deduplicated batch
//     search.
//
// Request kinds are dealt from shuffled blocks that hold each kind in its
// exact proportion, so every seed sends the stated mix; the seed changes
// the order and everything else.
//
// Every response is checked: hits and GETs must be byte-identical to the
// fixture with X-Aarc-Cache: hit; new specs must answer miss with an
// assignment covering every function group; DELETE must answer 204; every
// batch item must have its expected status and cache flag, duplicates the
// same fingerprint and bytes; every evaluate must return its runs. A
// failed check, a transport error or an unexpected status is a failure,
// counted in the result line's failed.
//
// # End-to-end metrics
//
// Per workload, untraced, bounded in BENCHMARK.json:
//
//   - setup_s, a daemon's start up to serving the quality set (bound
//     25 %). On the memory store its 40 searches make it tenths of a
//     second of CPU work, the same for every seed. On durable-churn it is
//     a restart: the index scan of the 448 fixture entries and the set,
//     the warm, and 40 hits. Construction and /readyz alone take about
//     0.3 ms, which measures how fast the host wakes threads: over 20
//     minutes on a 2-core KVM guest, comparing the medians of ten runs
//     taken minutes apart, the later one was more than 25 % worse in 21 %
//     of pairs for that bare start, 10 % for a set of 20 small specs, and
//     4 % for this set. When durable-churn's setups searched the set and
//     wrote it through to disk, their fsyncs moved its median by 29 and
//     49 % between rounds twenty minutes apart;
//   - heap_mb, the live heap (HeapAlloc) after a GC at the end of the open
//     loop, with the generator's bodies dropped (bound 10 %). HeapInuse
//     would also count the free space in partly used spans, which the load
//     leaves behind differently in every run: on whatif-batch it is 3.6
//     times the live heap and spreads 4 % between seeds, where the live
//     heap stays within 0.5 %;
//   - sim_search_s (the paper's total search time, simulated), rec_cost
//     (the recommended configuration's cost) and slo_ok_frac, averaged
//     over the quality set's recommendations (bound 0: exact). The quality
//     set is drawn from a fixed seed, not the run's, so that every run of
//     one build reports the same values and any change to what the service
//     recommends fails the comparison, whichever seeds the runs use.
//
// Unresolved: measured and printed, in the -json report too, but not
// bounded, because their spread between runs exceeds the bound they would
// need. Ten seeds of each workload on a 2-core KVM guest gave these
// interquartile ranges over the median, lowest and highest workload:
// p50_ms (median latency over the open loop, from due time) 8 to 167 %,
// p99_ms (its 99th percentile) 26 to 247 %, capacity_rps (successful
// closed-loop requests per second) 14 to 24 %, cpu_ms_per_req (process
// user+sys CPU over the open loop per request) 3 to 28 %, against bounds
// of 10 to 15 %. The host's neighbours slow its cores by up to 40 % for
// seconds at a time, queueing at 30 % load multiplies that in the
// latencies, and a same-seed rerun spreads as widely. alloc_kb_per_req
// (allocated KiB per open-loop request) repeats exactly for a seed, but
// cold-unique's varies 5 to 9 % between seeds against a 3 % bound: a few
// large layered specs dominate its allocation.
//
// # Per-layer metrics
//
// Traced (-trace 1), over the same open loop. Spans are recorded only in
// this package, around calls into each layer's public functions: client
// (the generator), http (a middleware around aarc.NewServiceHandler; the
// X-Bench-Id header pairs it with the client's span), store (a timing
// wrapper around each tier, composed in the order service.New uses and
// passed in with aarc.WithStore), service (Service.Stats deltas) and the
// probe's workflow, search and simfaas calls. -trace-dir writes
// spans.jsonl and layers.json. The tracing overhead is traced.p50_ms and
// traced.cpu_ms_per_req minus the untraced p50_ms and cpu_ms_per_req;
// runs over every workload with -trace 1 print it.
//
// client.sched_late_p99_ms is how late the dispatcher ran; above 2 ms a
// run is reported invalid on standard error and in the -json report. On a
// 2-core host every workload exceeds it at 30 % load, and cold-unique and
// whatif-batch already at 10 %: a search holds both cores for
// milliseconds, and the woken dispatcher waits for one. Latency is timed
// from the due time, so the lateness is counted in p50_ms and p99_ms, not
// hidden.
//
// What each layer should move:
//
//   - workflow.decode_us, workflow.canonical_us, workflow.fingerprint_us,
//     http.configure.*, service.self_us_per_req: p50_ms, cpu_ms_per_req,
//     alloc_kb_per_req and capacity_rps on hit-repeat, not on cold-unique,
//     where they are a small share of each request.
//   - store.memory.*: on hit-repeat, but well under 1 % of its time; no
//     end-to-end claim rests on it alone.
//   - store.disk.*, store.memory.get.hit_ratio, service.evictions: p50_ms,
//     p99_ms and capacity_rps on durable-churn, nothing on the memory-store
//     workloads.
//   - search.*, simfaas.*, workflow.compile_us: p50_ms, p99_ms,
//     capacity_rps and cpu_ms_per_req on cold-unique; less on durable-churn
//     and whatif-batch; nothing on hit-repeat. sim_search_s and rec_cost
//     must not move.
//   - http.evaluate.*, workflow.evaluate_us: p50_ms and capacity_rps on
//     whatif-batch; http.batch.* and service.batch_runs its p99_ms.
//
// # Comparing a parent and a change
//
// Measure both with the same benchmark code and settings: copy this
// directory into a checkout of the parent, then run the two trees in
// alternating order, at least ten pairs, each pair on its own seed, and
// compare each side's median and quartiles:
//
//	git archive PARENT | tar -x -C ../parent && cp -r cmd/aarcload ../parent/cmd/
//	for seed in 1 2 3 4 5 6 7 8 9 10; do
//	  first=. second=../parent
//	  if [ $((seed % 2)) = 0 ]; then first=../parent second=.; fi
//	  for tree in $first $second; do
//	    (cd $tree && bash cmd/aarcload/run.sh --workload hit-repeat --seed $seed --seconds 12 --trace 0 | tail -1)
//	  done
//	done
//
// A gain counts only when the change wins at least nine pairs in ten and
// the medians differ by more than the parent's own quartile spread; every
// bounded metric and workload must stay within its BENCHMARK.json bound,
// and an unresolved metric is reported as unresolved unless every run of
// the change reads better than every run of the parent.
package main
