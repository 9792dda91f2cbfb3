package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"slices"
	"syscall"
	"time"

	"aarc"
	"aarc/internal/store"
)

const (
	// saturationGain bounds how much less CPU a saturated service spends
	// per request than the open loop measured, where cores idle and wake
	// between requests: about 1.7 times less on a 2-core x86 host. It
	// sizes the closed-loop request pool.
	saturationGain = 2
	// maxSchedLate is the dispatcher's allowed p99 lateness; a run above
	// it did not deliver the arrivals it claims and is marked invalid.
	maxSchedLate = 2 * time.Millisecond
)

// runOptions configures one workload run.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceDir string
	sz       sizes
	// wrap, when set, wraps the service handler; tests inject faults.
	wrap func(http.Handler) http.Handler
}

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is one workload run's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	RateRPS   float64  `json:"rate_rps"`
	Traced    bool     `json:"traced"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Valid     bool     `json:"valid"`
	Failures  []string `json:"failures,omitempty"`
	// E2E holds the end-to-end metrics BENCHMARK.json bounds. Unresolved
	// holds the ones whose spread between runs on a 2-core host exceeds
	// the bound they would need; they are reported, never compared.
	E2E        []metric `json:"-"`
	Unresolved []metric `json:"-"`
	Layers     []metric `json:"-"`
}

// quality averages what the recommendations promise, the paper's search
// time and cost under an SLO: the simulated search time, the recommended
// configuration's cost, and the share that meets the SLO. Nil entries,
// failed configures, are skipped.
func quality(recs []*aarc.ServiceRecommendation) (simS, cost, sloOK float64) {
	n := 0.0
	for _, r := range recs {
		if r == nil {
			continue
		}
		n++
		simS += r.SearchRuntimeMS / 1000
		cost += r.Final.Cost
		if r.SLOCompliant {
			sloOK++
		}
	}
	return div(simS, n), div(cost, n), div(sloOK, n)
}

// phases splits a run's measured seconds S into a 20/27 S open-loop phase
// and a 7/27 S closed-loop phase, after an unmeasured 1/9 S open-loop
// warm-up: at S = 27, 20 s and 7 s after 3 s.
func phases(seconds float64) (warm, open, closed time.Duration) {
	s := time.Duration(seconds * float64(time.Second))
	return s / 9, s * 20 / 27, s * 7 / 27
}

// closedPoolSize is how many requests the closed loop is given: what
// every core would complete in the phase at saturationGain times the
// open loop's measured CPU rate, cpuPerReq ms per request. A faster build
// that drains the pool ends the phase early; capacity_rps stays a rate.
func closedPoolSize(closed time.Duration, cpuPerReq float64) int {
	if cpuPerReq <= 0 {
		return 0
	}
	return int(math.Ceil(saturationGain * closed.Seconds() * float64(runtime.NumCPU()) * 1000 / cpuPerReq))
}

// server is the measured service behind a real http.Server on loopback.
type server struct {
	svc   *aarc.Service
	srv   *http.Server
	base  string
	done  chan error
	retry *store.Retry // the traced durable stack's retry tier
}

// startServer builds the service as cmd/aarcd does at its flag defaults
// and serves it until /readyz answers 200. A traced run composes the same
// store stack itself, each tier timed, and times the handler per route.
func startServer(w workload, dir string, rec *recorder, wrap func(http.Handler) http.Handler) (*server, error) {
	opts := serviceOptions(w.cacheSize)
	var retry *store.Retry
	switch {
	case rec != nil:
		diskDir := ""
		if w.durable {
			diskDir = dir
		}
		st, r, err := tracedStore(diskDir, w.cacheSize, rec)
		if err != nil {
			return nil, err
		}
		opts, retry = append(opts, aarc.WithStore(st)), r
	case w.durable:
		opts = append(opts, aarc.WithCacheDir(dir))
	}
	svc, err := aarc.NewService(opts...)
	if err != nil {
		return nil, err
	}
	h := aarc.NewServiceHandler(svc)
	if rec != nil {
		h = rec.middleware(h)
	}
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	s := &server{
		svc: svc,
		// cmd/aarcd's timeouts at their flag defaults.
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      2 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		base:  "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
		retry: retry,
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	if err := waitReady(s.base); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// setUp starts the measured service and configures the quality set on it
// over HTTP, one spec at a time: a daemon's start up to serving a known
// set of workflows. On a memory store every setup starts empty and
// searches the set, which makes it tenths of a second of CPU work rather
// than a few thread wake-ups. On durable-churn stored holds the set's
// entries, written to the disk once before the setups, and every setup
// serves them from there as hits: a restarted daemon answering the
// workflows it knows, with no fsynced write in the timed set-up. Each
// configure is checked and counted
// in res; it returns the recommendations in the quality set's order, nil
// where a configure failed.
func setUp(w workload, dir string, rec *recorder, wrap func(http.Handler) http.Handler, refs []*specBody, stored []*entry, res *result) (*server, []*aarc.ServiceRecommendation, error) {
	srv, err := startServer(w, dir, rec, wrap)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(srv.base, nil)
	defer c.close()
	recs := make([]*aarc.ServiceRecommendation, len(refs))
	for i, b := range refs {
		req := &request{op: opConfigure, body: b.post, spec: b}
		if stored != nil {
			req = &request{op: opConfigure, body: b.post, fix: stored[i]}
		}
		res.Attempted++
		if _, _, err := c.do(req); err != nil {
			res.Failed++
			c.fail(err)
			continue
		}
		recs[i] = req.served[0].rec
	}
	res.Failures = append(res.Failures, c.failures...)
	return srv, recs, nil
}

func waitReady(base string) error {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("/readyz answered %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close shuts the server down, waits for Serve to return and closes the
// service.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// snapshot is the process and service state at a phase boundary.
type snapshot struct {
	cpu     time.Duration
	mem     runtime.MemStats
	stats   aarc.ServiceStats
	retries int64
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnapshot(s *server) snapshot {
	snap := snapshot{cpu: processCPU()}
	runtime.ReadMemStats(&snap.mem)
	snap.stats = s.svc.Stats()
	if s.retry != nil {
		snap.retries = s.retry.Retries()
	}
	return snap
}

// schedule draws the warm-up and open-loop due times from the seed.
func schedule(seed uint64, rate float64, warm, open time.Duration) (warmDue, openDue []time.Duration) {
	rng := rand.New(rand.NewPCG(seed, 0xa221))
	return poisson(rng, rate, warm), poisson(rng, rate, open)
}

// draw takes the next n requests of a traffic stream.
func draw(tr traffic, n int) ([]*request, error) {
	reqs := make([]*request, n)
	for i := range reqs {
		var err error
		if reqs[i], err = tr.next(); err != nil {
			return nil, fmt.Errorf("generating requests: %w", err)
		}
	}
	return reqs, nil
}

// runWorkload runs one workload in this process: build the seed's inputs,
// set the service up with the quality set, prime its fixture, warm up,
// measure an open-loop phase and a closed-loop phase, and re-run sampled
// bodies directly.
func runWorkload(o runOptions) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	rate := w.rate * o.sz.load
	warm, open, closed := phases(o.seconds)
	warmDue, openDue := schedule(o.seed, rate, warm, open)
	if len(openDue) == 0 {
		return nil, fmt.Errorf("%s: no open-loop arrivals in %v", w.name, open)
	}
	t := time.Now()
	stamp := func(phase string) {
		log.Printf("%s: %-8s %6.2fs", w.name, phase, time.Since(t).Seconds())
		t = time.Now()
	}

	dir, err := os.MkdirTemp("", "aarcload-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	tr := w.newTraffic(o.seed, o.sz)
	if err := tr.build(dir); err != nil {
		return nil, fmt.Errorf("%s: building inputs: %w", w.name, err)
	}
	refs, err := referenceBodies(o.sz.reference)
	if err != nil {
		return nil, err
	}
	var stored []*entry
	if w.durable {
		// A shared disk's fsync latency drifts by tens of percent over
		// minutes; storing the quality set here keeps writes out of setup_s.
		if stored, err = storeEntries(dir, refs); err != nil {
			return nil, fmt.Errorf("%s: storing the quality set: %w", w.name, err)
		}
	}
	stamp("build")
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	res := &result{Workload: w.name, Seed: o.seed, RateRPS: rate, Traced: o.trace}
	var srv *server
	// recs is the last setup's quality set, first the first one's: every
	// service must recommend the same for it.
	var recs, first []*aarc.ServiceRecommendation
	setupS := make([]float64, 0, o.sz.setups)
	for k := 0; k < o.sz.setups; k++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if srv, recs, err = setUp(w, dir, rec, o.wrap, refs, stored, res); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if k == 0 {
			first = recs
		}
		for i, r := range recs {
			if r != nil && first[i] != nil && !reflect.DeepEqual(r, first[i]) {
				res.Failed++
				res.Failures = append(res.Failures, fmt.Sprintf("setup %d recommends differently for %s than setup 0", k, r.Fingerprint))
			}
		}
	}
	defer srv.close()
	simS, cost, sloOK := quality(recs)
	stamp("setup")
	if err := tr.prime(srv.svc); err != nil {
		return nil, fmt.Errorf("%s: priming the fixture: %w", w.name, err)
	}
	stamp("prime")
	warmReqs, err := draw(tr, len(warmDue))
	if err != nil {
		return nil, err
	}
	openReqs, err := draw(tr, len(openDue))
	if err != nil {
		return nil, err
	}
	stamp("generate")

	c := newClient(srv.base, rec)
	defer c.close()
	for _, s := range c.open(warmReqs, warmDue) {
		if s.err != nil {
			res.Failed++
		}
	}
	stamp("warm-up")

	before := takeSnapshot(srv)
	if rec != nil {
		rec.on.Store(true)
	}
	samples := c.open(openReqs, openDue)
	if rec != nil {
		rec.on.Store(false)
	}
	after := takeSnapshot(srv)
	stamp("open")

	var late, lat []float64
	// distinct holds each recommendation served in the open loop once.
	var distinct []served
	seen := make(map[string]bool)
	for i, s := range samples {
		late = append(late, ms(s.late))
		if s.err != nil {
			res.Failed++
			continue
		}
		lat = append(lat, ms(s.lat))
		for _, sv := range openReqs[i].served {
			if !seen[sv.rec.Fingerprint] {
				seen[sv.rec.Fingerprint] = true
				distinct = append(distinct, sv)
			}
		}
	}
	slices.Sort(lat)
	slices.Sort(late)
	schedLate := quantile(late, 0.99)
	res.Valid = schedLate < ms(maxSchedLate)
	n := float64(len(samples))
	p50 := quantile(lat, 0.5)
	cpuPerReq := ms(after.cpu-before.cpu) / n
	limit := o.sz.checks
	if o.trace {
		limit = o.sz.probes
	}
	probes := pick(distinct, limit)
	// Drop the client's pre-generated bodies before measuring the heap, so
	// heap_mb measures the service rather than the load generator.
	res.Attempted += len(warmReqs) + len(openReqs)
	warmReqs, openReqs, distinct = nil, nil, nil
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)

	closedPool := closedPoolSize(closed, cpuPerReq)
	if o.sz.closedPool > 0 {
		closedPool = min(closedPool, o.sz.closedPool)
	}
	closedReqs, err := draw(tr, closedPool)
	if err != nil {
		return nil, err
	}
	stamp("generate")
	attempted, closedOK, ran := c.closed(closedReqs, closed)
	res.Attempted += attempted
	res.Failed += attempted - closedOK
	stamp("closed")

	var ps probeStats
	for _, s := range probes {
		res.Attempted++
		if err := probe(s, rec, &ps); err != nil {
			res.Failed++
			c.fail(err)
		}
	}
	res.Failures = append(res.Failures, c.failures...)
	stamp("probe")

	res.E2E = []metric{
		{"setup_s", median(setupS), "s"},
		{"heap_mb", float64(heap.HeapAlloc) / (1 << 20), "MiB"},
		{"sim_search_s", simS, "sim_s"},
		{"rec_cost", cost, "cost_units"},
		{"slo_ok_frac", sloOK, "ratio"},
	}
	res.Unresolved = []metric{
		{"p50_ms", p50, "ms"},
		{"p99_ms", quantile(lat, 0.99), "ms"},
		{"capacity_rps", div(float64(closedOK), ran.Seconds()), "req/s"},
		{"cpu_ms_per_req", cpuPerReq, "ms"},
		{"alloc_kb_per_req", float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / n, "KiB"},
	}
	if rec != nil {
		res.Layers = layerMetrics(rec, before, after, samples, ps, p50, cpuPerReq, schedLate)
		if o.traceDir != "" {
			if err := rec.writeTrace(o.traceDir, res.Layers); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// pick returns up to limit items spread evenly over xs.
func pick(xs []served, limit int) []served {
	if len(xs) <= limit {
		return xs
	}
	out := make([]served, limit)
	for i := range out {
		out[i] = xs[i*len(xs)/limit]
	}
	return out
}

// layerMetrics derives the traced run's per-layer metrics over the
// open-loop phase, plus the probe phase's direct calls.
func layerMetrics(rec *recorder, b, a snapshot, samples []sample, ps probeStats, p50, cpuPerReq, schedLate float64) []metric {
	var m []metric
	add := func(name string, v float64, unit string) { m = append(m, metric{name, v, unit}) }

	var rtt []float64
	for _, s := range samples {
		rtt = append(rtt, ms(s.rtt))
	}
	slices.Sort(rtt)
	rec.mu.Lock()
	netUS := usList(rec.net)
	rec.mu.Unlock()
	add("client.sched_late_p99_ms", schedLate, "ms")
	add("client.rtt_p50_ms", quantile(rtt, 0.5), "ms")
	add("net.p50_us", quantile(netUS, 0.5), "us")

	var httpBusy time.Duration
	for _, route := range routes {
		st := rec.op("http." + route)
		d := usList(st.durs)
		add("http."+route+".count", float64(len(st.durs)), "count")
		add("http."+route+".busy_ms", ms(st.busy), "ms")
		add("http."+route+".p50_us", quantile(d, 0.5), "us")
		add("http."+route+".p99_us", quantile(d, 0.99), "us")
		httpBusy += st.busy
	}
	for _, tier := range []string{"memory", "disk"} {
		errs := 0
		for _, op := range []string{"get", "put", "delete", "keys"} {
			st := rec.op("store." + tier + "." + op)
			add("store."+tier+"."+op+".count", float64(len(st.durs)), "count")
			add("store."+tier+"."+op+".busy_ms", ms(st.busy), "ms")
			add("store."+tier+"."+op+".p99_us", quantile(usList(st.durs), 0.99), "us")
			errs += st.errors
		}
		add("store."+tier+".errors", float64(errs), "count")
	}
	get := rec.op("store.memory.get")
	add("store.memory.get.hit_ratio", div(float64(get.hits), float64(len(get.durs))), "ratio")
	add("store.disk.retries", float64(a.retries-b.retries), "count")

	hits, misses := a.stats.Hits-b.stats.Hits, a.stats.Misses-b.stats.Misses
	add("service.hits", float64(hits), "count")
	add("service.misses", float64(misses), "count")
	add("service.searches", float64(a.stats.Searches-b.stats.Searches), "count")
	add("service.batch_runs", float64(a.stats.BatchRuns-b.stats.BatchRuns), "count")
	add("service.evictions", float64(a.stats.Evictions-b.stats.Evictions), "count")
	add("service.store_errors", float64(a.stats.StoreErrors-b.stats.StoreErrors), "count")
	add("service.hit_ratio", div(float64(hits), float64(hits+misses)), "ratio")
	self := httpBusy - rec.busyWithPrefix("store.")
	add("service.self_us_per_req", div(us(self), float64(len(samples))), "us")

	n := float64(ps.n)
	add("workflow.decode_us", div(us(ps.decode), n), "us")
	add("workflow.canonical_us", div(us(ps.canonical), n), "us")
	add("workflow.fingerprint_us", div(us(ps.fingerprint), n), "us")
	add("workflow.compile_us", div(us(ps.compile), n), "us")
	add("search.search_ms", div(ms(ps.search), n), "ms")
	add("search.samples", div(float64(ps.samples), n), "count")
	add("search.self_ms", div(ms(ps.search-ps.evals), n), "ms")
	add("simfaas.evaluate.count", float64(ps.evalCount), "count")
	add("simfaas.evaluate_us", div(us(ps.evals), float64(ps.evalCount)), "us")
	add("workflow.evaluate_us", div(us(ps.whatif), n*whatifRuns), "us")

	add("runtime.gc_cycles", float64(a.mem.NumGC-b.mem.NumGC), "count")
	add("runtime.gc_pause_ms", float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, "ms")
	add("traced.p50_ms", p50, "ms")
	add("traced.cpu_ms_per_req", cpuPerReq, "ms")
	return m
}
