// Package naive provides two reference searchers used for ablations and
// sanity checks rather than paper claims: uniform random search over the
// decoupled grid, and an exhaustive uniform-configuration grid search (every
// function shares one configuration, so the sweep is tractable).
package naive

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"aarc/internal/resources"
	"aarc/internal/search"
)

// Version is the naive baselines' implementation version folded into
// serving-layer fingerprints, for random and grid alike.
// internal/search/version.lock decides when it moves: bump it when
// TestMethodPins reports that either method's stored bodies moved, and
// both lock lines change. A change that moves a search trace but no
// stored body only re-records core's searchTraceDigest.
const Version = 1

func init() {
	search.Register("random", Version, func(seed uint64) search.Searcher {
		return &Random{Budget: 100, Seed: seed}
	})
	search.Register("grid", Version, func(seed uint64) search.Searcher {
		return &UniformGrid{CPUPoints: 8, MemPoints: 8}
	})
}

// Random samples the decoupled space uniformly at random for a fixed budget
// and returns the cheapest SLO-compliant assignment seen.
type Random struct {
	Budget int
	Seed   uint64
}

// Name implements search.Searcher.
func (r *Random) Name() string { return "Random" }

// Search implements search.Searcher.
func (r *Random) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	sloMS := opts.SLOMS
	if sloMS <= 0 {
		return search.Outcome{}, fmt.Errorf("naive: non-positive SLO %v", sloMS)
	}
	budget := r.Budget
	if budget <= 0 {
		budget = 100
	}
	rng := rand.New(rand.NewPCG(r.Seed, 0x5eed))
	groups := ev.Functions()
	lim := ev.Limits()
	trace := search.NewTrace(ctx, "Random", opts)

	best := ev.Base()
	var bestRes search.Result // zero until a feasible sample is accepted
	bestCost := math.Inf(1)
	for i := 0; i < budget; i++ {
		a := make(resources.Assignment, len(groups))
		for _, g := range groups {
			a[g] = lim.Snap(lim.Denormalize(rng.Float64(), rng.Float64()))
		}
		res, err := ev.Evaluate(a)
		if err != nil {
			return search.Outcome{}, err
		}
		ok := !res.OOM && res.E2EMS <= sloMS && res.Cost < bestCost
		if ok {
			bestCost = res.Cost
			best = a.Clone()
			bestRes = res
		}
		if err := trace.Record(a, res, ok, "random"); err != nil {
			return search.Outcome{Best: best, Trace: trace, Final: bestRes}, search.StopCause(err)
		}
	}
	return search.Outcome{Best: best, Trace: trace, Final: bestRes}, nil
}

// UniformGrid sweeps a coarsened (cpu, mem) grid, assigning the same
// configuration to every function, and returns the cheapest SLO-compliant
// point. CPUPoints and MemPoints bound the sweep resolution per axis.
type UniformGrid struct {
	CPUPoints int
	MemPoints int
}

// Name implements search.Searcher.
func (u *UniformGrid) Name() string { return "UniformGrid" }

// Search implements search.Searcher.
func (u *UniformGrid) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	sloMS := opts.SLOMS
	if sloMS <= 0 {
		return search.Outcome{}, fmt.Errorf("naive: non-positive SLO %v", sloMS)
	}
	cp := u.CPUPoints
	if cp <= 1 {
		cp = 8
	}
	mp := u.MemPoints
	if mp <= 1 {
		mp = 8
	}
	groups := ev.Functions()
	lim := ev.Limits()
	trace := search.NewTrace(ctx, "UniformGrid", opts)

	best := ev.Base()
	var bestRes search.Result // zero until a feasible sample is accepted
	bestCost := math.Inf(1)
	for i := 0; i < cp; i++ {
		for j := 0; j < mp; j++ {
			cfg := lim.Snap(lim.Denormalize(
				float64(i)/float64(cp-1),
				float64(j)/float64(mp-1),
			))
			a := resources.Uniform(groups, cfg)
			res, err := ev.Evaluate(a)
			if err != nil {
				return search.Outcome{}, err
			}
			ok := !res.OOM && res.E2EMS <= sloMS && res.Cost < bestCost
			if ok {
				bestCost = res.Cost
				best = a.Clone()
				bestRes = res
			}
			if err := trace.Record(a, res, ok, "grid"); err != nil {
				return search.Outcome{Best: best, Trace: trace, Final: bestRes}, search.StopCause(err)
			}
		}
	}
	return search.Outcome{Best: best, Trace: trace, Final: bestRes}, nil
}

var (
	_ search.Searcher = (*Random)(nil)
	_ search.Searcher = (*UniformGrid)(nil)
)
