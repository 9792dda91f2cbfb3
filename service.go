package aarc

import (
	"net/http"

	"aarc/internal/service"
	"aarc/internal/store"
	"aarc/internal/workflow"
)

// The serving layer re-exported through the facade: a long-lived Service
// that answers Configure/Dispatch requests from a fingerprint-keyed
// recommendation store (one search per unique workload, singleflight under
// concurrency; a Dispatch is the Configure at its input class's scale)
// and evaluates configured workflows on a sharded runner pool. cmd/aarcd
// is this service behind HTTP; NewServiceHandler mounts the same API
// inside another server.
type (
	// Service is the long-lived serving layer: store + singleflight +
	// sharded runner pools. Safe for concurrent use.
	Service = service.Service
	// ServiceRecommendation is the serializable, storable outcome of one
	// configuration search as the service returns it.
	ServiceRecommendation = service.Recommendation
	// ServiceRequest carries the per-request overrides of the service's
	// Configure and Dispatch.
	ServiceRequest = service.RequestOptions
	// ServiceStats is a snapshot of the service's cache counters,
	// including per-tier store sizes and the store's breaker state.
	ServiceStats = service.Stats
	// DispatchResult is the outcome of one input-aware dispatch: the input
	// class and its configuration, under the fingerprint of the class's
	// store entry.
	DispatchResult = service.DispatchResult
	// ServiceBatchItem is one configure request inside a
	// Service.ConfigureBatch call: a spec plus its per-request options.
	ServiceBatchItem = service.BatchItem
	// ServiceBatchResult is the per-item outcome of Service.ConfigureBatch,
	// index-aligned with the submitted items; failures are isolated per
	// item in its Err field.
	ServiceBatchResult = service.BatchResult
	// ServiceRecommendationInfo is one stored entry's line in the
	// Service.Recommendations listing (GET /v1/recommendations).
	ServiceRecommendationInfo = service.RecommendationInfo

	// Store is the pluggable recommendation storage contract behind the
	// serving layer: Get/Put/Delete/Keys/Len/Close over fingerprint-keyed,
	// already-serialized entries. Bring any implementation via WithStore;
	// NewMemoryStore, OpenDiskStore and NewTieredStore are the shipped
	// ones.
	Store = store.Store
	// StoreEntry is one stored recommendation: the exact served bytes
	// plus opaque metadata the service uses to rebuild evaluation
	// runners after a restart.
	StoreEntry = store.Entry
)

// NewMemoryStore returns the bounded in-memory LRU store (the serving
// default): fast, process-private, at most capacity entries.
func NewMemoryStore(capacity int) Store { return store.NewMemory(capacity) }

// OpenDiskStore opens (creating if needed) the durable one-file-per-
// fingerprint store rooted at dir. Entries survive restarts; corrupt
// files degrade to cache misses, never errors.
func OpenDiskStore(dir string) (Store, error) { return store.OpenDisk(dir) }

// NewTieredStore layers fast over slow with write-through puts and
// promote-on-hit gets — WithCacheDir is shorthand for a bounded memory
// tier over a disk tier.
func NewTieredStore(fast, slow Store) Store { return store.NewTiered(fast, slow) }

// NewService builds the serving layer with the same functional options as
// Configure (WithMethod, WithSeed, WithHostCores, WithNoise, WithSLO,
// WithInputScale) plus the service-specific WithCacheSize, WithShards,
// WithCacheDir, WithStore and WithBatchWorkers, and the resilience knobs
// WithSearchTimeout and WithMaxConcurrentSearches. The service starts no
// background work: only a request writes its store, and each successful
// write is one Info record, "store put" or "store invalidated" with the
// key fingerprint, on the slog.Default logger in place when the service
// is built. A WithBudget budget becomes the server-side cap: requests may
// tighten it, never exceed it. The error is the backing store's (opening
// a cache directory can fail; a memory-only service cannot). Close the
// service to release the store.
func NewService(opts ...Option) (*Service, error) {
	s := newSettings(opts)
	return service.New(service.Config{
		Method:       s.method,
		Seed:         s.seed,
		HostCores:    s.hostCores,
		Noise:        s.noise,
		InputScale:   s.inputScale,
		SLOMS:        s.sloMS,
		MaxSamples:   s.maxSamples,
		MaxSimCostMS: s.maxSimMS,
		CacheSize:    s.cacheSize,
		Shards:       s.shards,
		BatchWorkers: s.batchWorkers,
		CacheDir:     s.cacheDir,
		Store:        s.store,

		SearchTimeout:         s.searchTimeout,
		MaxConcurrentSearches: s.maxConcSearches,
	})
}

// NewServiceHandler mounts the service's HTTP API (the one cmd/aarcd
// serves: /healthz, /readyz, /v1/methods, /v1/configure,
// /v1/configure:batch, /v1/recommendation/{fp}, /v1/recommendations,
// /v1/dispatch, /v1/evaluate) for embedding in another http.Server,
// panic-recovery middleware included.
func NewServiceHandler(s *Service) http.Handler { return service.NewHandler(s) }

// SpecFingerprint returns the content-addressed identity of a workflow
// definition: "sha256:<hex>" over its canonical JSON. The serving layer
// keys its store on this fingerprint combined with the search options and
// the method's registered implementation version.
func SpecFingerprint(spec *Spec) (string, error) { return workflow.Fingerprint(spec) }
