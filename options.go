package aarc

import (
	"time"

	"aarc/internal/store"
)

// settings collects everything the functional options tune. The defaults
// mirror the paper's experimental setup: the AARC method on a 96-core
// testbed with measurement noise on and the canonical seed.
type settings struct {
	method     string
	sloMS      float64 // 0: use the spec's SLO
	maxSamples int
	maxSimMS   float64
	progress   func(Sample)
	seed       uint64
	hostCores  float64
	noise      bool
	inputScale float64     // 0: scale 1.0
	cacheSize  int         // NewService: 0 = default 128
	shards     int         // NewService: 0 = GOMAXPROCS
	cacheDir   string      // NewService: "" = memory-only store
	store      store.Store // NewService: nil = built from cacheSize/cacheDir

	batchWorkers int // ConfigureBatch + NewService: 0 = GOMAXPROCS

	searchTimeout   time.Duration // NewService: 0 = no server-side search deadline
	maxConcSearches int           // NewService: 0 = unlimited cold searches
}

func defaultSettings() settings {
	return settings{
		method:    "aarc",
		seed:      42,
		hostCores: 96,
		noise:     true,
	}
}

// An Option tunes Configure, ConfigureClasses or NewRunner.
type Option func(*settings)

// WithMethod selects the search method by registered name ("aarc", "bo",
// "maff", "random", "grid", or anything added via the search registry).
// Default: "aarc".
func WithMethod(name string) Option {
	return func(s *settings) { s.method = name }
}

// WithSLO overrides the workflow's end-to-end latency SLO. The zero value
// keeps the spec's own SLO.
func WithSLO(d time.Duration) Option {
	return func(s *settings) { s.sloMS = float64(d) / float64(time.Millisecond) }
}

// Budget bounds a search. Zero fields are unlimited.
type Budget struct {
	// MaxSamples caps the number of configuration probes; the sampling
	// trace never exceeds it.
	MaxSamples int
	// MaxSimCost caps the total simulated wall time spent sampling. The
	// probe that crosses the budget is kept; no further probe starts.
	MaxSimCost time.Duration
}

// WithBudget bounds the search by sample count and/or simulated time spent
// sampling. A search that exhausts its budget stops normally and returns
// the best configuration found so far.
func WithBudget(b Budget) Option {
	return func(s *settings) {
		s.maxSamples = b.MaxSamples
		s.maxSimMS = float64(b.MaxSimCost) / float64(time.Millisecond)
	}
}

// WithProgress registers a callback invoked synchronously with every sample
// as the search records it. It runs on the search's hot path: keep it fast.
func WithProgress(fn func(Sample)) Option {
	return func(s *settings) { s.progress = fn }
}

// WithSeed sets the deterministic seed shared by the simulator and the
// searcher. Default: 42, the seed used throughout the paper reproduction.
func WithSeed(seed uint64) Option {
	return func(s *settings) { s.seed = seed }
}

// WithHostCores sets the host CPU capacity shared by concurrently running
// containers (default 96, the paper's testbed). Zero disables contention.
func WithHostCores(cores float64) Option {
	return func(s *settings) { s.hostCores = cores }
}

// WithNoise toggles the profiles' multiplicative measurement noise
// (default on, as in every paper experiment).
func WithNoise(enabled bool) Option {
	return func(s *settings) { s.noise = enabled }
}

// WithInputScale sets the default input scale of the runner (default 1.0).
// Per-request scales are available through Runner.EvaluateScale and the
// input-aware engine.
func WithInputScale(scale float64) Option {
	return func(s *settings) { s.inputScale = scale }
}

// WithCacheSize bounds NewService's recommendation cache (LRU entries;
// default 128). Configure and ConfigureClasses ignore it.
func WithCacheSize(n int) Option {
	return func(s *settings) { s.cacheSize = n }
}

// WithShards sets how many Runners NewService pools per evaluated
// fingerprint for concurrent Evaluate/Validate (default GOMAXPROCS). Configure and
// ConfigureClasses ignore it.
func WithShards(n int) Option {
	return func(s *settings) { s.shards = n }
}

// WithCacheDir makes NewService's recommendation store durable: a
// WithCacheSize-bounded memory tier over a disk tier rooted at dir
// (write-through, promote-on-hit, warmed from disk on start). The disk
// tier sits behind bounded retries and a circuit breaker with fixed
// settings: 5 consecutive failures open it (memory-only serving,
// /readyz degraded), and after 15s one probe op decides between closing
// and re-opening. A restarted service answers fingerprints its
// predecessor searched as cache hits, byte-identical. Configure and
// ConfigureClasses ignore it; WithStore overrides it.
func WithCacheDir(dir string) Option {
	return func(s *settings) { s.cacheDir = dir }
}

// WithBatchWorkers bounds how many searches a batched configure run
// executes concurrently: ConfigureBatch's worker pool, and — for
// NewService — the pooled run behind Service.ConfigureBatch and
// POST /v1/configure:batch. Zero (the default) selects GOMAXPROCS.
// Configure and ConfigureClasses ignore it.
func WithBatchWorkers(n int) Option {
	return func(s *settings) { s.batchWorkers = n }
}

// WithSearchTimeout sets NewService's server-side search deadline: a
// leader search still running after d fails with a timeout error —
// served to the leader and every singleflight follower, never cached —
// instead of holding its flight (and its WithMaxConcurrentSearches
// slot) indefinitely. Zero (the default) leaves searches unbounded;
// bound their work with WithBudget instead when determinism matters.
// Configure, ConfigureBatch and ConfigureClasses ignore it.
func WithSearchTimeout(d time.Duration) Option {
	return func(s *settings) { s.searchTimeout = d }
}

// WithMaxConcurrentSearches caps how many cold searches NewService runs
// at once. At saturation, a singleton configure miss without a context
// deadline is shed fail-fast (HTTP 429 with Retry-After on the wire);
// one with a deadline waits for a slot until then; batched runs always
// wait (their concurrency is already pool-bounded). Zero (the default)
// disables the cap. Configure, ConfigureBatch and ConfigureClasses
// ignore it.
func WithMaxConcurrentSearches(n int) Option {
	return func(s *settings) { s.maxConcSearches = n }
}

// WithStore plugs a caller-built recommendation store (see the Store
// contract; NewMemoryStore, OpenDiskStore, NewTieredStore ship) into
// NewService, overriding WithCacheSize and WithCacheDir. The service
// takes ownership: its Close closes the store. Configure and
// ConfigureClasses ignore it.
func WithStore(st Store) Option {
	return func(s *settings) { s.store = st }
}
