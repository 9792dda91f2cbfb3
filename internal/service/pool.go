package service

import (
	"sync"
	"sync/atomic"

	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/workflow"
)

// runnerPool shards evaluation across independent Runners. A Runner reuses
// a scratch arena and a single RNG stream, so it must never be shared
// between goroutines (DESIGN.md §3); the pool honors that rule by giving
// each shard its own Runner behind its own mutex. Callers are spread
// round-robin by an atomic counter, so up to len(shards) evaluations
// proceed truly in parallel and contention only appears when two callers
// land on the same shard.
type runnerPool struct {
	next   atomic.Uint64
	shards []runnerShard
}

type runnerShard struct {
	mu sync.Mutex
	r  *workflow.Runner
}

// shardSeedStride decorrelates the shards' RNG streams; it is the same
// 64-bit golden-ratio constant the runner uses for its own PCG stream.
const shardSeedStride = 0x9e3779b97f4a7c15

// newRunnerPool builds n runners over the same spec. Shard i is seeded
// opts.Seed + i*shardSeedStride: deterministic per (service seed, shard),
// independent across shards, and independent of request interleaving only
// in aggregate — which shard a request lands on depends on arrival order,
// so pooled results are measurement statistics, not a reproducible stream.
func newRunnerPool(spec *workflow.Spec, opts workflow.RunnerOptions, n int) (*runnerPool, error) {
	if n < 1 {
		n = 1
	}
	p := &runnerPool{shards: make([]runnerShard, n)}
	for i := range p.shards {
		o := opts
		o.Seed = opts.Seed + uint64(i)*shardSeedStride
		r, err := workflow.NewRunner(spec, o)
		if err != nil {
			return nil, err
		}
		p.shards[i].r = r
	}
	return p, nil
}

// evaluate runs one execution on the next shard (round-robin), holding
// that shard's lock for exactly one Evaluate call.
func (p *runnerPool) evaluate(a resources.Assignment) (search.Result, error) {
	sh := &p.shards[int(p.next.Add(1)-1)%len(p.shards)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.r.Evaluate(a) //aarc:locked the shard mutex owns this Runner; locking it is what makes Evaluate safe (DESIGN.md §3)
}

// evaluateN runs n executions, each on the next shard (round-robin) via
// evaluate, so concurrent callers interleave across shards run by run. On
// a mid-run error the completed results are returned alongside it.
func (p *runnerPool) evaluateN(a resources.Assignment, n int) ([]search.Result, error) {
	out := make([]search.Result, 0, n)
	for i := 0; i < n; i++ {
		res, err := p.evaluate(a)
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
	return out, nil
}
