package main

import (
	"bufio"
	"encoding/json"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aarc/internal/store"
)

// recorder is the traced run's instrumentation. Every span lives in
// memory until the run ends; per-operation statistics accumulate only
// while the recording window (the open-loop phase) is on. All spans come
// from this package, around calls into each layer's public functions.
type recorder struct {
	start time.Time
	ids   atomic.Uint64
	on    atomic.Bool

	mu      sync.Mutex
	spans   []span
	ops     map[string]*opStat
	handled map[uint64]time.Duration // request id -> server handler time
	net     []time.Duration          // client round trip minus handler time
}

// span is one timed call: name, id, the span that caused it (0: none) and
// its start and end in nanoseconds since the run started.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opStat is one operation's work inside the recording window.
type opStat struct {
	durs   []time.Duration
	busy   time.Duration
	hits   int // store gets that found their key
	errors int
}

func newRecorder() *recorder {
	return &recorder{
		start:   time.Now(),
		ops:     make(map[string]*opStat),
		handled: make(map[uint64]time.Duration),
	}
}

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

// record keeps a span (allocating its id when id is 0) and, inside the
// window, counts it toward its operation. It returns the span's id.
func (r *recorder) record(name string, id, parent uint64, t0, t1 time.Time, hit, failed bool) uint64 {
	if id == 0 {
		id = r.newID()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: int64(t0.Sub(r.start)), End: int64(t1.Sub(r.start)),
	})
	if !r.on.Load() {
		return id
	}
	st := r.ops[name]
	if st == nil {
		st = new(opStat)
		r.ops[name] = st
	}
	d := t1.Sub(t0)
	st.durs = append(st.durs, d)
	st.busy += d
	if hit {
		st.hits++
	}
	if failed {
		st.errors++
	}
	return id
}

// clientDone records a client round trip and, inside the window, the part
// of it the server's handler did not account for.
func (r *recorder) clientDone(route string, id uint64, sent, done time.Time) {
	r.record("client."+route, id, 0, sent, done, false, false)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.handled[id]
	delete(r.handled, id)
	if ok && r.on.Load() {
		r.net = append(r.net, done.Sub(sent)-h)
	}
}

// op returns a copy of one operation's statistics.
func (r *recorder) op(name string) opStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	if st := r.ops[name]; st != nil {
		return *st
	}
	return opStat{}
}

// busyWithPrefix sums the busy time of every operation under prefix.
func (r *recorder) busyWithPrefix(prefix string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var busy time.Duration
	for name, st := range r.ops {
		if strings.HasPrefix(name, prefix) {
			busy += st.busy
		}
	}
	return busy
}

// middleware times the service handler per route. The client's request id
// arrives in the X-Bench-Id header; the handler time is kept under it so
// the client can subtract it from its round trip.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, req)
		t1 := time.Now()
		route := routeOf(req)
		if route == "" {
			return
		}
		parent, _ := strconv.ParseUint(req.Header.Get(benchIDHeader), 10, 64)
		r.record("http."+route, 0, parent, t0, t1, false, false)
		r.mu.Lock()
		r.handled[parent] = t1.Sub(t0)
		r.mu.Unlock()
	})
}

// routeOf names the API route a request reaches; "" for the probes
// (/readyz) that are not part of a workload.
func routeOf(req *http.Request) string {
	p := req.URL.Path
	switch {
	case req.Method == http.MethodPost && p == "/v1/configure":
		return opConfigure.route()
	case req.Method == http.MethodPost && p == "/v1/configure:batch":
		return opBatch.route()
	case req.Method == http.MethodPost && p == "/v1/evaluate":
		return opEvaluate.route()
	case req.Method == http.MethodGet && strings.HasPrefix(p, "/v1/recommendation/"):
		return opGet.route()
	case req.Method == http.MethodDelete && strings.HasPrefix(p, "/v1/recommendation/"):
		return opDelete.route()
	}
	return ""
}

// timedStore times every call into one store tier. It reports the tier's
// own Stats, so the service's eviction counts see through it.
type timedStore struct {
	store.Store
	tier string
	rec  *recorder
}

func (t timedStore) done(op string, t0 time.Time, hit bool, err error) {
	t.rec.record("store."+t.tier+"."+op, 0, 0, t0, time.Now(), hit, err != nil)
}

func (t timedStore) Get(key string) (store.Entry, bool, error) {
	t0 := time.Now()
	e, ok, err := t.Store.Get(key)
	t.done("get", t0, ok, err)
	return e, ok, err
}

func (t timedStore) Put(key string, e store.Entry) error {
	t0 := time.Now()
	err := t.Store.Put(key, e)
	t.done("put", t0, false, err)
	return err
}

func (t timedStore) Delete(key string) error {
	t0 := time.Now()
	err := t.Store.Delete(key)
	t.done("delete", t0, false, err)
	return err
}

func (t timedStore) Keys() []string {
	t0 := time.Now()
	keys := t.Store.Keys()
	t.done("keys", t0, false, nil)
	return keys
}

func (t timedStore) Stats() store.Stats { return store.StatsOf(t.Store) }

// tracedStore composes the store stack service.New builds — a bounded
// memory tier, over Breaker(Retry(Disk)) when dir is set — with each tier
// timed. It returns the retry tier (nil without a disk) for its counter.
//
// This repeats service.New's CacheDir branch at aarcd's defaults, which
// are the store package's zero-config defaults, and must follow it when
// that branch changes. The untraced runs, which give every end-to-end
// metric, use aarc.WithCacheDir and so service.New itself.
func tracedStore(dir string, cacheSize int, rec *recorder) (store.Store, *store.Retry, error) {
	mem := timedStore{Store: store.NewMemory(cacheSize), tier: "memory", rec: rec}
	if dir == "" {
		return mem, nil, nil
	}
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return nil, nil, err
	}
	retry := store.NewRetry(timedStore{Store: disk, tier: "disk", rec: rec}, store.RetryConfig{})
	breaker := store.NewBreaker(retry, store.BreakerConfig{Logf: log.Printf})
	tiered := store.NewTiered(mem, breaker)
	tiered.Warm(cacheSize)
	return tiered, retry, nil
}

// writeTrace writes spans.jsonl, one span per line, and layers.json, the
// per-layer metrics, into dir.
func (r *recorder) writeTrace(dir string, layers []metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(metricsJSON(layers), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(b, '\n'), 0o644)
}
