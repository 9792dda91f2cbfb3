// Package simfaas simulates the serverless platform substrate the paper runs
// on (Docker containers with decoupled cpuset/cgroup limits on a 96-core
// host): per-function containers keyed by their resource configuration,
// cold versus warm starts, OOM kills and keep-alive.
//
// A Platform is the immutable model: cold-start latency and OOM detection.
// The mutable keep-alive state lives in Containers, one per function slot,
// owned by whoever drives the invocations (a workflow runner holds one per
// plan node), so an invocation takes no lock and hashes no key.
//
// The simulator is deliberately clock-free at this layer: Invoke returns the
// duration an invocation would take; the workflow engine assembles durations
// into a makespan on a simulated clock (with CPU contention applied there).
package simfaas

import (
	"fmt"
	"math/rand/v2"

	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// Options configures platform behaviour.
type Options struct {
	// ColdStartBaseMS is the fixed container provisioning latency.
	ColdStartBaseMS float64
	// ColdStartPerGBMS adds per-GB runtime initialization latency (language
	// runtime + snapshot restore grow with the memory footprint).
	ColdStartPerGBMS float64
	// KeepAlive keeps containers warm across invocations; re-invoking the
	// same function at the same configuration skips the cold start, exactly
	// like consecutive probes during a configuration search.
	KeepAlive bool
	// OOMDetectMS is how long a container runs before the OOM killer fires
	// on an under-provisioned invocation.
	OOMDetectMS float64
}

// DefaultOptions mirrors typical container platforms: ~400 ms provisioning,
// ~120 ms/GB init, keep-alive on, OOM detected within 200 ms.
func DefaultOptions() Options {
	return Options{
		ColdStartBaseMS:  400,
		ColdStartPerGBMS: 120,
		KeepAlive:        true,
		OOMDetectMS:      200,
	}
}

// Metrics aggregates a container's invocation counters.
type Metrics struct {
	Invocations int
	ColdStarts  int
	WarmStarts  int
	OOMKills    int
}

// Invocation is the outcome of one function invocation on the platform.
type Invocation struct {
	RuntimeMS   float64 // total billed duration including cold start
	ColdStartMS float64
	Cold        bool
	OOM         bool
}

// Platform is a simulated FaaS substrate: the cold-start and OOM model
// every invocation runs under. It is immutable, so any number of
// goroutines may invoke through one Platform, each on its own Containers.
type Platform struct {
	opts Options
}

// New returns a platform with the given options.
func New(opts Options) *Platform {
	return &Platform{opts: opts}
}

// Container is one function's container slot: the configuration of its
// warm container, if it has one, and its counters. The zero value is a
// slot with no container yet. A Container is not safe for concurrent use.
type Container struct {
	warm    resources.Config // zero (an invalid config): nothing warm
	metrics Metrics
}

// Metrics returns the container's counters.
func (c *Container) Metrics() Metrics { return c.metrics }

// ColdStartMS returns the provisioning latency for a container of the given
// memory size.
func (p *Platform) ColdStartMS(cfg resources.Config) float64 {
	return p.opts.ColdStartBaseMS + p.opts.ColdStartPerGBMS*cfg.MemMB/1024
}

// Invoke runs one invocation of prof at cfg and input scale in container c:
// warm when c holds a kept-alive container at exactly cfg, cold otherwise.
// A nil rng disables measurement noise. OOM kills are reported in-band via
// the OOM flag (the partial duration is still billed, and the container
// dies); only misuse returns an error.
//
// prof must have passed Profile.Validate; Invoke does not check it again
// (a Runner validates every profile once, when its spec is compiled).
func (p *Platform) Invoke(c *Container, prof *perfmodel.Profile, cfg resources.Config, scale float64, rng *rand.Rand) (Invocation, error) {
	if !cfg.Valid() {
		return Invocation{}, fmt.Errorf("simfaas: invalid config %v for %s", cfg, prof.Name)
	}

	cold := !p.opts.KeepAlive || c.warm != cfg
	c.metrics.Invocations++
	if cold {
		c.metrics.ColdStarts++
	} else {
		c.metrics.WarmStarts++
	}

	var coldMS float64
	if cold {
		coldMS = p.ColdStartMS(cfg)
	}

	t, oom, err := prof.Observe(cfg, scale, rng)
	if err != nil {
		return Invocation{}, err
	}
	if oom {
		c.metrics.OOMKills++
		c.warm = resources.Config{} // the container died
		partial := prof.OOMPartialMS(cfg, scale)
		if partial < p.opts.OOMDetectMS {
			partial = p.opts.OOMDetectMS
		}
		return Invocation{
			RuntimeMS:   coldMS + partial,
			ColdStartMS: coldMS,
			Cold:        cold,
			OOM:         true,
		}, nil
	}

	if p.opts.KeepAlive {
		c.warm = cfg
	}
	return Invocation{
		RuntimeMS:   coldMS + t,
		ColdStartMS: coldMS,
		Cold:        cold,
	}, nil
}
