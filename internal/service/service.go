// Package service is the long-lived serving layer over the configuration
// searchers: the §IV-D online engine shape — dispatch incoming work to
// pre-searched configurations — generalized to every workflow.
//
// A Service owns four things:
//
//   - a content-addressed identity for work: the cache key is a SHA-256
//     over the spec's canonical JSON (workflow.CanonicalJSON), the search
//     options' canonical JSON (search.Options.CanonicalJSON) and the
//     engine identity (method, the method's registered implementation
//     version, seed, host cores, noise and input scale), so
//     byte-different requests that describe the same search share one
//     entry, and bumping a method's version orphans every stale
//     recommendation it ever produced;
//   - a pluggable recommendation Store (internal/store) behind
//     singleflight admission: N concurrent requests for the same key run
//     exactly one search, and a store hit answers without constructing a
//     Runner or Searcher at all. The store holds serialized bytes plus
//     enough metadata (canonical spec, runner options) that a different
//     process — via the disk store — can serve and even evaluate entries
//     it never searched;
//   - a fingerprint-addressed fast path: clients that remember their
//     fingerprint call RecommendationJSON (GET /v1/recommendation/{fp})
//     and skip spec decoding, canonicalization and hashing entirely;
//     Invalidate (DELETE) is the explicit eviction door;
//   - a sharded runner pool per evaluated fingerprint for the
//     post-configuration hot path (Validate / Evaluate): Runners are not
//     concurrency-safe (one-runner-per-goroutine rule, DESIGN.md §3), so
//     the pool holds one independently-seeded Runner per shard behind its
//     own mutex. Pools are process-private runtime state, built from the
//     store's metadata on a fingerprint's first evaluation — a search
//     leaves nothing behind but the store entry, which stays the only
//     authority on whether a fingerprint is configured.
//
// Searches run detached from the requesting client's context
// (context.WithoutCancel): a shared cache entry must not be poisoned by
// whichever client happens to disconnect first. Bound server-side work
// with Config.MaxSamples / MaxSimCostMS instead; a budget-exhausted search
// is a normal stop and its partial recommendation is cached like any
// other. Failed searches never reach the store — no tier sees a write —
// so the next request retries.
package service

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aarc/internal/experiments"
	"aarc/internal/inputaware"
	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/store"
	"aarc/internal/workflow"
)

// Config sets a Service's defaults. Per-request values (RequestOptions)
// override Method, Seed, SLOMS and InputScale; MaxSamples and MaxSimCostMS
// act as server-side caps — a request may tighten a budget, never loosen
// it past the cap. No field starts work of its own: a Service runs no
// goroutine between requests, so only a request writes the store.
type Config struct {
	Method       string  // search method; default "aarc"
	Seed         uint64  // simulator+searcher seed; no default here, 0 is a seed (the facade and aarcd default to 42)
	HostCores    float64 // host CPU capacity; 0 disables contention
	Noise        bool    // measurement noise on the simulated testbed
	InputScale   float64 // default input scale; 0 means 1.0
	SLOMS        float64 // default SLO override; 0 keeps each spec's SLO
	MaxSamples   int     // server-side sample cap per search; 0 = unlimited
	MaxSimCostMS float64 // server-side simulated-time cap per search; 0 = unlimited
	CacheSize    int     // max in-memory entries; default 128
	Shards       int     // runners per fingerprint's pool; default GOMAXPROCS

	// BatchWorkers bounds how many searches one batched configure run
	// (ConfigureBatch) executes concurrently; 0 selects GOMAXPROCS.
	BatchWorkers int

	// SearchTimeout, when positive, is the server-side deadline applied
	// to every detached leader search: a search that has not returned by
	// then releases its singleflight claim with a timeout error — served
	// to the leader and every follower, never cached — instead of
	// holding the flight slot forever. A cooperative searcher observes
	// the deadline through its context; a truly wedged one leaks its
	// goroutine but neither its flight nor its admission slot.
	SearchTimeout time.Duration
	// MaxConcurrentSearches, when positive, caps how many cold searches
	// run at once across the whole service. A singleton miss that cannot
	// get a slot is shed fail-fast (ErrOverloaded — HTTP 429 with
	// Retry-After) when its context carries no deadline, or waits for a
	// slot until that deadline otherwise. Batched runs wait for slots
	// (their concurrency is already bounded by the batch pool). Zero
	// disables the cap.
	MaxConcurrentSearches int

	// CacheDir, when set (and Store is nil), stores recommendations in
	// store.NewDurable's tiered store: a CacheSize-bounded memory tier
	// over a durable disk tier rooted here, behind a Retry and a Breaker
	// with their default settings, warmed from disk on construction.
	// Restarts serve the previous process's entries as hits.
	CacheDir string
	// Store, when non-nil, is used as-is (CacheSize and CacheDir are
	// skipped). The Service takes ownership: Close closes it. A Breaker
	// or Retry tier inside it is observed (Stats, /readyz) through
	// store.StatsOf.
	Store store.Store
}

// RequestOptions carries the per-request knobs of Configure and Dispatch.
// Zero values defer to the Service's Config (a nil Seed keeps the service
// seed; 0 is a valid explicit seed).
type RequestOptions struct {
	Method       string
	Seed         *uint64
	SLOMS        float64
	MaxSamples   int
	MaxSimCostMS float64
	InputScale   float64
}

// ConfigValue is the wire form of one function's resource configuration.
type ConfigValue struct {
	CPU   float64 `json:"cpu"`
	MemMB float64 `json:"mem_mb"`
}

// FinalResult is the wire form of the search's last measurement of the
// recommended assignment.
type FinalResult struct {
	E2EMS float64 `json:"e2e_ms"`
	Cost  float64 `json:"cost"`
	OOM   bool    `json:"oom"`
}

// Recommendation is the serializable outcome of one configuration search,
// as stored and served. Its JSON encoding is deterministic (struct fields
// in declaration order, string-keyed maps sorted by key), so every
// response for one fingerprint is byte-identical — across processes, when
// the store is durable.
type Recommendation struct {
	Fingerprint     string                 `json:"fingerprint"`
	Workflow        string                 `json:"workflow"`
	Method          string                 `json:"method"`
	SLOMS           float64                `json:"slo_ms"`
	Assignment      map[string]ConfigValue `json:"assignment"`
	Samples         int                    `json:"samples"`
	SearchRuntimeMS float64                `json:"search_runtime_ms"`
	SearchCost      float64                `json:"search_cost"`
	Final           FinalResult            `json:"final"`
	SLOCompliant    bool                   `json:"slo_compliant"`
}

// ResourceAssignment converts the wire assignment back to the internal type.
func (r *Recommendation) ResourceAssignment() resources.Assignment {
	a := make(resources.Assignment, len(r.Assignment))
	for g, c := range r.Assignment {
		a[g] = resources.Config{CPU: c.CPU, MemMB: c.MemMB}
	}
	return a
}

// DispatchResult is the serializable outcome of one input-aware dispatch:
// the class the analyzed input scale fell into and that class's
// configuration, stored under Fingerprint like any configure's.
type DispatchResult struct {
	Fingerprint string                 `json:"fingerprint"`
	Workflow    string                 `json:"workflow"`
	Method      string                 `json:"method"`
	Class       string                 `json:"class"`
	ClassScale  float64                `json:"class_scale"`
	Scale       float64                `json:"scale"`
	Assignment  map[string]ConfigValue `json:"assignment"`
}

// Stats counts the service's cache behavior since construction.
type Stats struct {
	Hits           int64          `json:"hits"`            // answered from the store, no search machinery touched
	Misses         int64          `json:"misses"`          // had to run — or wait on — a search
	Searches       int64          `json:"searches"`        // underlying searches actually run
	Evictions      int64          `json:"evictions"`       // entries dropped by the store's capacity bound
	StoreErrors    int64          `json:"store_errors"`    // store reads/writes that failed and were degraded
	BatchRuns      int64          `json:"batch_runs"`      // pooled batch search runs (ConfigureBatch)
	Retries        int64          `json:"retries"`         // store ops recovered (or attempted) by the store's retry tier
	ShedRequests   int64          `json:"shed_requests"`   // cold searches refused by the concurrency cap (HTTP 429)
	SearchTimeouts int64          `json:"search_timeouts"` // searches cut off by the server-side deadline
	Panics         int64          `json:"panics"`          // handler panics recovered into 500s
	BreakerState   string         `json:"breaker_state"`   // closed | open | half-open, or none without a breaker
	Entries        int            `json:"entries"`         // recommendations currently stored
	Store          string         `json:"store"`           // store kind: memory, disk, tiered, custom
	Tiers          map[string]int `json:"tiers"`           // per-tier entry counts
}

// Service is the long-lived serving layer. It is safe for concurrent use.
type Service struct {
	cfg    Config
	st     store.Store
	flight flightGroup
	batch  *experiments.Pool // bounds concurrent searches per batched run

	sem chan struct{} // MaxConcurrentSearches slots; nil = uncapped

	logger *slog.Logger // the change record: putStore and Invalidate log each successful write

	mu    sync.Mutex
	pools *lruCache // fingerprint -> *entry (runner pools of evaluated fingerprints)

	draining atomic.Bool // BeginDrain/Close flipped; /readyz turns 503

	hits           atomic.Int64
	misses         atomic.Int64
	searches       atomic.Int64
	storeErrs      atomic.Int64
	batchRuns      atomic.Int64
	shedRequests   atomic.Int64
	searchTimeouts atomic.Int64
	panics         atomic.Int64
}

// New builds a Service. Zero Config fields take the documented defaults;
// the error is the backing store's (a memory-only service cannot fail).
// The service's change record goes to the slog.Default logger in place
// at this call.
func New(cfg Config) (*Service, error) {
	if cfg.Method == "" {
		cfg.Method = "aarc"
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	st := cfg.Store
	if st == nil {
		if cfg.CacheDir != "" {
			disk, err := store.OpenDisk(cfg.CacheDir)
			if err != nil {
				return nil, err
			}
			st = store.NewDurable(disk, cfg.CacheSize, store.BreakerConfig{Logf: log.Printf})
		} else {
			st = store.NewMemory(cfg.CacheSize)
		}
	}
	s := &Service{
		cfg:    cfg,
		st:     st,
		batch:  experiments.NewPool(cfg.BatchWorkers),
		pools:  newLRUCache(cfg.CacheSize),
		logger: slog.Default(),
	}
	if cfg.MaxConcurrentSearches > 0 {
		s.sem = make(chan struct{}, cfg.MaxConcurrentSearches)
	}
	return s, nil
}

// Close releases the backing store (flushing nothing: durable tiers are
// written through at Put time, so shutdown has no persistence step). The
// service owns no goroutine to stop.
func (s *Service) Close() error {
	s.draining.Store(true)
	return s.st.Close()
}

// BeginDrain marks the service as shutting down: Ready turns false and
// /readyz answers 503 so load balancers stop routing new traffic, while
// in-flight and late-arriving requests are still served normally. It is
// the first step of a graceful shutdown, before http.Server.Shutdown.
func (s *Service) BeginDrain() { s.draining.Store(true) }

// Ready reports whether the service should receive new traffic, with a
// human-readable reason when it should not: false while draining
// (shutdown in progress) and while the store's breaker is open (the
// service still serves — memory-only — but is degraded and a balancer
// with healthy peers should prefer them).
func (s *Service) Ready() (ok bool, reason string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if store.StatsOf(s.st).Breaker == store.BreakerOpen.String() {
		return false, "store breaker open"
	}
	return true, ""
}

// BreakerState names the store's breaker state ("closed", "open",
// "half-open"), or "none" when the store has no breaker.
func (s *Service) BreakerState() string { return cmp.Or(store.StatsOf(s.st).Breaker, "none") }

// Methods lists the registered search methods, sorted.
func (s *Service) Methods() []string { return search.Methods() }

// Stats returns a snapshot of the cache counters.
func (s *Service) Stats() Stats {
	ss := store.StatsOf(s.st)
	return Stats{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Searches:       s.searches.Load(),
		Evictions:      ss.Evictions,
		StoreErrors:    s.storeErrs.Load(),
		BatchRuns:      s.batchRuns.Load(),
		Retries:        ss.Retries,
		ShedRequests:   s.shedRequests.Load(),
		SearchTimeouts: s.searchTimeouts.Load(),
		Panics:         s.panics.Load(),
		BreakerState:   cmp.Or(ss.Breaker, "none"),
		Entries:        s.st.Len(),
		Store:          ss.Kind,
		Tiers:          ss.Tiers,
	}
}

// ErrOverloaded is returned when a cold search is shed by the
// MaxConcurrentSearches cap: every slot is busy and the request carries
// no deadline worth waiting under. The HTTP layer maps it to 429 with a
// Retry-After header.
var ErrOverloaded = errors.New("service: too many concurrent searches, retry later")

// acquireSearch takes a cold-search admission slot. With no cap it is
// free. With a cap, the fast path is a non-blocking acquire; when the
// service is saturated the behavior splits on shed:
//
//   - shed=true (the singleton miss path): a request without a context
//     deadline is refused immediately with ErrOverloaded — fail-fast
//     beats queueing unbounded work behind a slow burst — while a
//     request that brought a deadline waits for a slot until then;
//   - shed=false (batch runs, whose concurrency the batch pool already
//     bounds): wait for a slot, honoring ctx cancellation.
func (s *Service) acquireSearch(ctx context.Context, shed bool) error {
	if s.sem == nil {
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if shed {
		if _, ok := ctx.Deadline(); !ok {
			s.shedRequests.Add(1)
			return ErrOverloaded
		}
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.shedRequests.Add(1)
		return ErrOverloaded
	}
}

// releaseSearch returns an admission slot taken by acquireSearch.
func (s *Service) releaseSearch() {
	if s.sem != nil {
		<-s.sem
	}
}

// RetryAfterSeconds is the Retry-After hint served with a 429: one
// search deadline's worth of seconds (rounded up), or 1 when no
// deadline is configured.
func (s *Service) RetryAfterSeconds() int {
	if s.cfg.SearchTimeout <= 0 {
		return 1
	}
	secs := int(math.Ceil(s.cfg.SearchTimeout.Seconds()))
	if secs < 1 {
		return 1
	}
	return secs
}

// entryMeta is the sidecar persisted with every stored recommendation:
// everything a process needs to build a fingerprint's evaluation runner
// pool, whether or not it ran the search itself, plus the search identity
// (method, version, SLO, budgets, creation time). Of the identity, only
// method_version and created_unix_ms are read back, by the
// Recommendations listing; the rest is still written so that the
// persisted bytes, and every existing cache directory, keep one format.
// The identity fields are omitempty: entries persisted by older
// processes decode with them zero.
type entryMeta struct {
	Spec json.RawMessage `json:"spec"` // canonical spec JSON
	metaFields
}

// metaFields is entryMeta after the spec. runSearch marshals only these
// and splices the spec in front (writeSpecObject); encoding/json flattens
// the embedded struct, so the stored bytes are entryMeta's either way.
type metaFields struct {
	HostCores  float64 `json:"host_cores"`
	Noise      bool    `json:"noise"`
	Seed       uint64  `json:"seed"`
	InputScale float64 `json:"input_scale"`

	Method        string  `json:"method,omitempty"` // registry name, not display name
	MethodVersion int     `json:"method_version,omitempty"`
	SLOMS         float64 `json:"slo_ms,omitempty"`
	MaxSamples    int     `json:"max_samples,omitempty"`
	MaxSimCostMS  float64 `json:"max_sim_cost_ms,omitempty"`
	CreatedUnixMS int64   `json:"created_unix_ms,omitempty"`
}

// writeSpecObject writes the JSON object {"spec":<specJSON>,<members of
// rest>}: the bytes json.Marshal writes for a struct whose first field is
// the spec as a json.RawMessage and whose other fields marshal to rest,
// without the second scan and compaction of the whole spec that the
// RawMessage costs. specJSON must be json.Marshal output (CanonicalJSON's
// is), and rest a marshaled object with at least one member.
func writeSpecObject(w io.Writer, specJSON, rest []byte) {
	w.Write(specObjectOpen)
	w.Write(specJSON)
	w.Write(specObjectSep)
	w.Write(rest[1:])
}

// The spliced bytes, as slices that passing to an io.Writer does not
// allocate.
var specObjectOpen, specObjectSep = []byte(`{"spec":`), []byte{','}

func (m entryMeta) runnerOptions() workflow.RunnerOptions {
	return workflow.RunnerOptions{
		HostCores:  m.HostCores,
		Noise:      m.Noise,
		Seed:       m.Seed,
		InputScale: m.InputScale,
	}
}

// storedSpec decodes a stored entry's meta and the canonical spec in it.
func storedSpec(fp string, meta []byte) (entryMeta, *workflow.Spec, error) {
	var m entryMeta
	if err := json.Unmarshal(meta, &m); err != nil {
		return entryMeta{}, nil, fmt.Errorf("service: stored metadata for %s is unreadable: %w", fp, err)
	}
	spec, err := workflow.DecodeCanonicalSpec(m.Spec)
	if err != nil {
		return entryMeta{}, nil, fmt.Errorf("service: rebuilding spec for %s: %w", fp, err)
	}
	return m, spec, nil
}

// decodeRecommendation decodes served bytes into a Recommendation the
// caller owns.
func decodeRecommendation(body []byte) (*Recommendation, error) {
	rec := new(Recommendation)
	if err := json.Unmarshal(body, rec); err != nil {
		return nil, fmt.Errorf("service: decoding stored recommendation: %w", err)
	}
	return rec, nil
}

// entry is the process-private runtime state behind one evaluated
// fingerprint: its sharded runner pool, built from the stored entryMeta
// by the fingerprint's first Evaluate or Validate. The mutex serializes
// that build, so concurrent first callers compile the runners once; a
// failed build leaves pool nil and the next call retries.
type entry struct {
	mu   sync.Mutex
	pool *runnerPool
}

func (e *entry) runnerPool(fp string, meta []byte, shards int) (*runnerPool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pool == nil {
		m, spec, err := storedSpec(fp, meta)
		if err != nil {
			return nil, err
		}
		if e.pool, err = newRunnerPool(spec, m.runnerOptions(), shards); err != nil {
			return nil, err
		}
	}
	return e.pool, nil
}

// resolved folds a request into the service defaults.
type resolved struct {
	method  string
	version int // the method's registered implementation version
	seed    uint64
	ropts   workflow.RunnerOptions
	sopts   search.Options
}

func (s *Service) resolve(spec *workflow.Spec, ro RequestOptions) (resolved, error) {
	r := resolved{method: s.cfg.Method, seed: s.cfg.Seed}
	if ro.Method != "" {
		r.method = ro.Method
	}
	version, err := search.Version(r.method)
	if err != nil {
		return resolved{}, requestError{err}
	}
	r.version = version
	if ro.Seed != nil {
		r.seed = *ro.Seed
	}
	scale := s.cfg.InputScale
	if ro.InputScale > 0 {
		scale = ro.InputScale
	}
	r.ropts = workflow.RunnerOptions{
		HostCores:  s.cfg.HostCores,
		Noise:      s.cfg.Noise,
		Seed:       r.seed,
		InputScale: scale,
	}
	sloMS := s.cfg.SLOMS
	if ro.SLOMS > 0 {
		sloMS = ro.SLOMS
	}
	if sloMS <= 0 {
		sloMS = spec.SLOMS
	}
	r.sopts = search.Options{
		SLOMS:        sloMS,
		MaxSamples:   capBudget(ro.MaxSamples, s.cfg.MaxSamples),
		MaxSimCostMS: capBudgetF(ro.MaxSimCostMS, s.cfg.MaxSimCostMS),
		Summary:      true, // a Recommendation reads only the trace's count and totals
	}
	return r, nil
}

// capBudget applies the server-side cap: the request may tighten the
// budget, never loosen past the cap (0 = unlimited on either side).
func capBudget(req, cap int) int {
	if cap > 0 && (req <= 0 || req > cap) {
		return cap
	}
	return req
}

func capBudgetF(req, cap float64) float64 {
	if cap > 0 && (req <= 0 || req > cap) {
		return cap
	}
	return req
}

// fingerprint builds the content-addressed cache key. The method's
// implementation version is part of the key: bumping a method's
// registered version changes every fingerprint it produces, so stale
// entries — including persisted ones — are simply never addressed again.
// It also returns the spec's canonical JSON, which a miss stores as-is.
func (s *Service) fingerprint(spec *workflow.Spec, r resolved) (fp string, specJSON []byte, err error) {
	specJSON, err = workflow.CanonicalJSON(spec)
	if err != nil {
		return "", nil, err
	}
	// The key is {"spec": specJSON, then these fields}; see writeSpecObject.
	rest, err := json.Marshal(struct {
		Search        json.RawMessage `json:"search"`
		Method        string          `json:"method"`
		MethodVersion int             `json:"method_version"`
		Seed          uint64          `json:"seed"`
		HostCores     float64         `json:"host_cores"`
		Noise         bool            `json:"noise"`
		InputScale    float64         `json:"input_scale"`
	}{
		Search:        r.sopts.CanonicalJSON(),
		Method:        r.method,
		MethodVersion: r.version,
		Seed:          r.seed,
		HostCores:     r.ropts.HostCores,
		Noise:         r.ropts.Noise,
		InputScale:    r.ropts.InputScale,
	})
	if err != nil {
		return "", nil, err
	}
	h := sha256.New()
	writeSpecObject(h, specJSON, rest)
	return fmt.Sprintf("sha256:%x", h.Sum(nil)), specJSON, nil
}

// getStore reads the store, degrading store errors to misses (a broken
// tier must not take serving down — the search path still works).
func (s *Service) getStore(fp string) (store.Entry, bool) {
	e, ok, err := s.st.Get(fp)
	if err != nil {
		s.storeErrs.Add(1)
		return store.Entry{}, false
	}
	return e, ok
}

// putStore persists a completed search and, once the write succeeded,
// records "store put" for fp. Write failures are degraded to a counter
// and record nothing: the recommendation was computed and is served
// regardless.
func (s *Service) putStore(fp string, e store.Entry) {
	if err := s.st.Put(fp, e); err != nil {
		s.storeErrs.Add(1)
		return
	}
	s.logger.Info("store put", "fingerprint", fp)
}

// searchMiss is the miss path a flight leader runs: re-check the store
// (a previous leader may have filled it between this caller's miss and
// its flight), take an admission slot, search, persist. shed selects
// the saturation policy (see acquireSearch). Failed searches — including
// shed and timed-out ones — are never written to any tier: the store
// stays untouched and the next request retries.
func (s *Service) searchMiss(ctx context.Context, fp string, spec *workflow.Spec, specJSON []byte, r resolved, shed bool) ([]byte, error) {
	if se, ok := s.getStore(fp); ok {
		return se.Body, nil
	}
	if err := s.acquireSearch(ctx, shed); err != nil {
		return nil, err
	}
	defer s.releaseSearch()
	// Detach from the client's context here, at the one blessed site,
	// and hand runSearch the detached context: the search keeps the
	// request's values and runSearcher layers the server deadline on top.
	se, err := s.runSearch(context.WithoutCancel(ctx), fp, spec, specJSON, r) //aarc:detached shared cache entry must not be poisoned by one client's disconnect
	if err != nil {
		return nil, err
	}
	s.putStore(fp, se)
	return se.Body, nil
}

// Configure returns the recommendation for (spec, options), searching at
// most once per fingerprint: concurrent callers with the same fingerprint
// share one search via singleflight, and later callers hit the store
// without constructing a Runner or Searcher. cacheHit reports whether this
// call was answered from the store (false for the singleflight leader and
// the followers that waited on it). Every call decodes the served bytes
// afresh, so the returned Recommendation is the caller's own.
func (s *Service) Configure(ctx context.Context, spec *workflow.Spec, ro RequestOptions) (rec *Recommendation, cacheHit bool, err error) {
	body, hit, err := s.ConfigureJSON(ctx, spec, ro)
	if err != nil {
		return nil, hit, err
	}
	rec, err = decodeRecommendation(body)
	return rec, hit, err
}

// ConfigureJSON is Configure returning the stored deterministic JSON
// encoding: every response for one fingerprint — leader, follower or hit,
// this process or a restarted one — is byte-identical. Callers must not
// mutate the returned slice.
func (s *Service) ConfigureJSON(ctx context.Context, spec *workflow.Spec, ro RequestOptions) (body []byte, cacheHit bool, err error) {
	if spec == nil {
		return nil, false, errors.New("service: Configure with nil spec")
	}
	r, err := s.resolve(spec, ro)
	if err != nil {
		return nil, false, err
	}
	fp, specJSON, err := s.fingerprint(spec, r)
	if err != nil {
		return nil, false, err
	}
	if se, ok := s.getStore(fp); ok {
		s.hits.Add(1)
		return se.Body, true, nil
	}
	s.misses.Add(1)
	// The first caller for fp searches inline; one arriving while a
	// singleton or a started batch item searches fp waits for its result.
	body, err = s.flight.do(ctx, fp, func() ([]byte, error) {
		return s.searchMiss(ctx, fp, spec, specJSON, r, true)
	})
	return body, false, err
}

// RecommendationJSON is the fingerprint-addressed fast path: the stored
// bytes for an already-configured fingerprint, skipping spec decoding,
// canonicalization and hashing entirely. It returns ErrUnknownFingerprint
// when the store has no entry (never configured, evicted, or invalidated);
// it never starts a search. Callers must not mutate the returned slice.
//
// A hit is alloc-free down to the memory tier, over the memory and the
// tiered store: hotpath_alloc_test.go pins it with testing.AllocsPerRun.
func (s *Service) RecommendationJSON(fp string) ([]byte, error) {
	se, ok := s.getStore(fp)
	if !ok {
		return nil, ErrUnknownFingerprint
	}
	s.hits.Add(1)
	return se.Body, nil
}

// Invalidate removes a fingerprint from every store tier, drops its
// runner pool and records "store invalidated"; existed reports whether
// there was an entry to remove. The next Configure for the same content
// re-searches. Existence is checked against the key index (Keys), not
// Get: a tiered Get would read the whole body off disk and promote it
// into memory just to delete it. An absent fingerprint skips the Delete
// entirely, and a failed Delete returns its error: neither is recorded.
func (s *Service) Invalidate(fp string) (existed bool, err error) {
	for _, k := range s.st.Keys() {
		if k == fp {
			existed = true
			break
		}
	}
	if !existed {
		return false, nil
	}
	if err := s.st.Delete(fp); err != nil {
		s.storeErrs.Add(1)
		return existed, err
	}
	s.mu.Lock()
	s.pools.remove(fp)
	s.mu.Unlock()
	s.logger.Info("store invalidated", "fingerprint", fp)
	return existed, nil
}

// runSearch performs one search and builds its storable form: the served
// body and the meta that evaluation pools are built from, which carries
// specJSON — the spec's canonical JSON — as given. The caller passes the
// context already detached from the client (see the package comment).
// Nothing is written to the store here: persisting is the caller's step,
// taken only on success.
func (s *Service) runSearch(ctx context.Context, fp string, spec *workflow.Spec, specJSON []byte, r resolved) (store.Entry, error) {
	searcher, err := search.New(r.method, r.seed)
	if err != nil {
		return store.Entry{}, err
	}
	runner, err := workflow.NewRunner(spec, r.ropts)
	if err != nil {
		return store.Entry{}, err
	}
	s.searches.Add(1)
	out, err := s.runSearcher(ctx, searcher, runner, r.sopts)
	if err != nil {
		return store.Entry{}, err
	}
	rec := &Recommendation{
		Fingerprint:     fp,
		Workflow:        spec.Name,
		Method:          searcher.Name(),
		SLOMS:           r.sopts.SLOMS,
		Assignment:      wireAssignment(out.Best),
		Samples:         out.Trace.Len(),
		SearchRuntimeMS: out.Trace.TotalRuntimeMS(),
		SearchCost:      out.Trace.TotalCost(),
		Final: FinalResult{
			E2EMS: out.Final.E2EMS,
			Cost:  out.Final.Cost,
			OOM:   out.Final.OOM,
		},
		SLOCompliant: out.Final.E2EMS > 0 && !out.Final.OOM && out.Final.E2EMS <= r.sopts.SLOMS,
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return store.Entry{}, err
	}
	meta, err := entryMetaJSON(specJSON, r, time.Now().UnixMilli())
	if err != nil {
		return store.Entry{}, err
	}
	return store.Entry{Body: body, Meta: meta}, nil
}

// entryMetaJSON encodes the entryMeta of a search: specJSON, the spec's
// canonical JSON, spliced in front of r's runner options and identity.
func entryMetaJSON(specJSON []byte, r resolved, createdUnixMS int64) ([]byte, error) {
	rest, err := json.Marshal(metaFields{
		HostCores:  r.ropts.HostCores,
		Noise:      r.ropts.Noise,
		Seed:       r.ropts.Seed,
		InputScale: r.ropts.InputScale,

		Method:        r.method,
		MethodVersion: r.version,
		SLOMS:         r.sopts.SLOMS,
		MaxSamples:    r.sopts.MaxSamples,
		MaxSimCostMS:  r.sopts.MaxSimCostMS,
		CreatedUnixMS: createdUnixMS,
	})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.Grow(len(specObjectOpen) + len(specJSON) + len(rest))
	writeSpecObject(&b, specJSON, rest)
	return b.Bytes(), nil
}

// searchOutcome carries a searcher's return across the timeout goroutine,
// panics included: a panic is re-raised on the caller's goroutine so the
// flightGroup sentinel and the HTTP recovery middleware see it exactly
// as they would on the inline (no-timeout) path.
type searchOutcome struct {
	out      search.Outcome
	err      error
	panicked any // non-nil: the recovered panic value
}

// runSearcher executes one search under the server-side SearchTimeout
// when one is configured. Detaching from the client's context is the
// caller's job: the miss path passes context.WithoutCancel (see the
// package comment), and the server deadline is derived from that
// detached context, so it still carries the request's values. The
// deadline is enforced twice over: cooperatively — the searcher sees a
// timed context and a well-behaved one returns context.DeadlineExceeded
// itself — and unconditionally, by selecting the result channel against
// the deadline, so even a searcher that ignores its context releases
// the caller (and with it the singleflight claim and the admission
// slot). A wedged searcher's goroutine is leaked deliberately: a leaked
// goroutine is recoverable, a wedged flight key is not. Timed-out
// searches fail like any other failed search — served as an error to
// leader and followers, never cached.
func (s *Service) runSearcher(ctx context.Context, searcher search.Searcher, runner search.Evaluator, sopts search.Options) (search.Outcome, error) {
	if s.cfg.SearchTimeout <= 0 {
		return searcher.Search(ctx, runner, sopts)
	}
	timed, cancel := context.WithTimeout(ctx, s.cfg.SearchTimeout)
	defer cancel()
	ch := make(chan searchOutcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- searchOutcome{panicked: p}
			}
		}()
		out, err := searcher.Search(timed, runner, sopts)
		ch <- searchOutcome{out: out, err: err}
	}()
	select {
	case r := <-ch:
		if r.panicked != nil {
			panic(r.panicked)
		}
		if errors.Is(r.err, context.DeadlineExceeded) {
			s.searchTimeouts.Add(1)
		}
		return r.out, r.err
	case <-timed.Done():
		s.searchTimeouts.Add(1)
		return search.Outcome{}, fmt.Errorf("service: search exceeded the %v server deadline: %w", s.cfg.SearchTimeout, context.DeadlineExceeded)
	}
}

// entryFor returns a configured fingerprint's store entry and runner
// pool. The store is read first and alone decides whether fp is
// configured: an evicted or invalidated fingerprint is
// ErrUnknownFingerprint here exactly as it is to RecommendationJSON,
// whatever the pools still hold. The pool is built from the entry's meta
// on the fingerprint's first call, outside s.mu.
func (s *Service) entryFor(fp string) (store.Entry, *runnerPool, error) {
	se, ok := s.getStore(fp)
	if !ok {
		return store.Entry{}, nil, ErrUnknownFingerprint
	}
	s.mu.Lock()
	v, ok := s.pools.get(fp)
	if !ok {
		v = new(entry)
		s.pools.add(fp, v)
	}
	s.mu.Unlock()
	pool, err := v.(*entry).runnerPool(fp, se.Meta, s.cfg.Shards)
	return se, pool, err
}

// Dispatch is the §IV-D online engine over the cache: it classifies the
// request's analyzed input scale into the smallest class covering it
// (inputaware.Classify; classes default to the paper's Video Analysis
// classes) and answers with Configure at that class's input scale, which
// replaces ro.InputScale. Each class is therefore one ordinary store
// entry, searched the first time it is dispatched to, with the same
// admission, deadline, singleflight, persistence and change record as
// any configure.
func (s *Service) Dispatch(ctx context.Context, spec *workflow.Spec, classes []inputaware.Class, scale float64, ro RequestOptions) (res *DispatchResult, cacheHit bool, err error) {
	if spec == nil {
		return nil, false, errors.New("service: Dispatch with nil spec")
	}
	if scale <= 0 {
		return nil, false, requestError{fmt.Errorf("service: Dispatch with non-positive input scale %v", scale)}
	}
	if len(classes) == 0 {
		classes = inputaware.DefaultVideoClasses()
	}
	sorted := append([]inputaware.Class(nil), classes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Scale < sorted[j].Scale })
	for _, c := range sorted {
		if c.Scale <= 0 {
			return nil, false, requestError{fmt.Errorf("service: class %q has non-positive scale %v", c.Name, c.Scale)}
		}
	}
	cls := inputaware.Classify(sorted, scale)
	ro.InputScale = cls.Scale
	rec, hit, err := s.Configure(ctx, spec, ro)
	if err != nil {
		return nil, hit, err
	}
	return &DispatchResult{
		Fingerprint: rec.Fingerprint,
		Workflow:    rec.Workflow,
		Method:      rec.Method,
		Class:       cls.Name,
		ClassScale:  cls.Scale,
		Scale:       scale,
		Assignment:  rec.Assignment,
	}, hit, nil
}

// A requestError is a request the caller got wrong in a way only the
// service can tell, such as an unknown method or a non-positive dispatch
// scale. The HTTP layer answers it 400.
type requestError struct{ error }

func (e requestError) Unwrap() error { return e.error }

// ErrUnknownFingerprint is returned by Evaluate/Validate and
// RecommendationJSON when the fingerprint has no stored entry (never
// configured here, evicted, or invalidated).
var ErrUnknownFingerprint = errors.New("service: unknown fingerprint (not configured or evicted)")

// MaxEvaluateRuns bounds one Evaluate/Validate call (and therefore one
// /v1/evaluate request): evaluation is synchronous simulator work, so an
// unbounded client-controlled count would let a single request pin the
// daemon.
const MaxEvaluateRuns = 1024

// ErrTooManyRuns is returned when an Evaluate/Validate run count exceeds
// MaxEvaluateRuns.
var ErrTooManyRuns = fmt.Errorf("service: runs exceed the per-request bound %d", MaxEvaluateRuns)

// Evaluate runs the workflow behind a configured fingerprint n times under
// an arbitrary assignment (what-if probing), on the fingerprint's sharded
// runner pool, each run on the next shard (runnerPool.evaluateN). A nil
// assignment evaluates the stored recommendation itself, decoded from the
// stored body at call time. Works across restarts when the store is
// durable: the pool is built from the stored canonical spec and runner
// options. On a mid-run error the completed results are returned
// alongside it, so callers (and the HTTP error body) can report how many
// runs finished.
func (s *Service) Evaluate(fp string, a resources.Assignment, n int) ([]search.Result, error) {
	if n <= 0 {
		n = 1
	}
	if n > MaxEvaluateRuns {
		return nil, ErrTooManyRuns
	}
	se, pool, err := s.entryFor(fp)
	if err != nil {
		return nil, err
	}
	if a == nil {
		rec, err := decodeRecommendation(se.Body)
		if err != nil {
			return nil, err
		}
		a = rec.ResourceAssignment()
	}
	return pool.evaluateN(a, n)
}

// Validate re-executes a fingerprint's recommended assignment n times on
// the sharded pool and returns the per-run results. Unlike
// Recommendation.Validate on the facade (which continues the search's own
// RNG stream), the pool's runners are independently seeded per shard: this
// is fresh-measurement statistics, not a continuation of the search.
func (s *Service) Validate(fp string, n int) ([]search.Result, error) {
	return s.Evaluate(fp, nil, n)
}

func wireAssignment(a resources.Assignment) map[string]ConfigValue {
	out := make(map[string]ConfigValue, len(a))
	for g, c := range a {
		out[g] = ConfigValue{CPU: c.CPU, MemMB: c.MemMB}
	}
	return out
}
