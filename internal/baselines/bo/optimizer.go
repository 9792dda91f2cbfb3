package bo

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"aarc/internal/mathx"
	"aarc/internal/resources"
	"aarc/internal/search"
)

// Version is the BO implementation version folded into serving-layer
// fingerprints. internal/search/version.lock decides when it moves: bump
// it when TestMethodPins reports that bo's stored bodies moved. A change
// that moves a search trace but no stored body only re-records core's
// searchTraceDigest.
const Version = 1

func init() {
	search.Register("bo", Version, func(seed uint64) search.Searcher {
		opts := DefaultOptions()
		opts.Seed = seed
		return New(opts)
	})
}

// Options tunes the Bayesian-optimization baseline.
type Options struct {
	// Budget is the total number of workflow executions, including the
	// initial design (the paper runs 100 rounds).
	Budget int
	// InitSamples is the size of the random initial design (the base
	// configuration is always the first point).
	InitSamples int
	// Candidates is how many random candidates score the acquisition
	// function per round.
	Candidates int
	// LengthScale, SignalVar, NoiseVar are the GP hyperparameters over the
	// normalized [0,1]^d space.
	LengthScale float64
	SignalVar   float64
	NoiseVar    float64
	// Constrained switches from the paper baseline — a single GP over the
	// SLO-penalized cost, which keeps exploring slow regions and exhibits
	// the instability of Fig. 3 — to constrained expected improvement with
	// a second runtime GP (an extension beyond the paper's baseline).
	Constrained bool
	// PenaltyWeight scales the SLO-violation penalty of the unconstrained
	// objective: y = cost · (1 + PenaltyWeight · max(0, t/SLO − 1)).
	PenaltyWeight float64
	// LocalFrac is the fraction of acquisition candidates drawn as local
	// perturbations of the incumbent instead of uniformly (0 in the paper
	// baseline; >0 is an extension that sharpens late convergence).
	LocalFrac float64
	// FitHyperparams selects the GP length scale per round by log marginal
	// likelihood over a small grid instead of using the fixed LengthScale
	// (an extension beyond the paper's baseline).
	FitHyperparams bool
	// Seed drives candidate sampling and the initial design.
	Seed uint64
}

// DefaultOptions returns the paper's setup: 100 rounds over the discretized
// decoupled space.
func DefaultOptions() Options {
	return Options{
		Budget:      100,
		InitSamples: 10,
		Candidates:  256,
		LengthScale: 0.12,
		SignalVar:   1.0,
		NoiseVar:    1e-4,
		Seed:        1,
	}
}

func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.Budget <= 0 {
		o.Budget = d.Budget
	}
	if o.InitSamples <= 0 {
		o.InitSamples = d.InitSamples
	}
	if o.InitSamples > o.Budget {
		o.InitSamples = o.Budget
	}
	if o.Candidates <= 0 {
		o.Candidates = d.Candidates
	}
	if o.LengthScale <= 0 {
		o.LengthScale = d.LengthScale
	}
	if o.SignalVar <= 0 {
		o.SignalVar = d.SignalVar
	}
	if o.NoiseVar <= 0 {
		o.NoiseVar = d.NoiseVar
	}
	if o.PenaltyWeight <= 0 {
		o.PenaltyWeight = 2
	}
	return o
}

// Optimizer is the BO searcher. It implements search.Searcher.
type Optimizer struct {
	opts Options
}

// New returns a BO searcher.
func New(opts Options) *Optimizer { return &Optimizer{opts: opts.normalize()} }

// Name implements search.Searcher.
func (o *Optimizer) Name() string { return "BO" }

// encode flattens an assignment into the normalized vector the GPs see,
// ordering groups as ev.Functions() does.
func encode(groups []string, lim resources.Limits, a resources.Assignment) []float64 {
	x := make([]float64, 0, 2*len(groups))
	for _, g := range groups {
		c01, m01 := lim.Normalize(a[g])
		x = append(x, c01, m01)
	}
	return x
}

// decode maps a normalized vector back to a grid-snapped assignment.
func decode(groups []string, lim resources.Limits, x []float64) resources.Assignment {
	a := make(resources.Assignment, len(groups))
	for i, g := range groups {
		cfg := lim.Denormalize(x[2*i], x[2*i+1])
		a[g] = lim.Snap(cfg)
	}
	return a
}

// Search runs constrained Bayesian optimization: EI on cost times the GP
// probability that end-to-end latency meets the SLO. OOM or infeasible
// observations are retained with penalized targets so the surrogate learns
// to avoid those regions.
func (o *Optimizer) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	sloMS := opts.SLOMS
	if sloMS <= 0 {
		return search.Outcome{}, fmt.Errorf("bo: non-positive SLO %v", sloMS)
	}
	groups := ev.Functions()
	lim := ev.Limits()
	rng := rand.New(rand.NewPCG(o.opts.Seed, 0xb0b0b0b0))
	trace := search.NewTrace(ctx, "BO", opts)

	var (
		xs        [][]float64
		costObs   []float64
		runObs    []float64
		bestCost  = math.Inf(1)
		bestA     resources.Assignment
		bestRes   search.Result
		baseRes   search.Result
		worstCost = 0.0
	)
	// outcome is the best-so-far result: the cheapest feasible point, or the
	// base configuration (always the first point evaluated) as fallback.
	outcome := func() search.Outcome {
		if bestA == nil {
			return search.Outcome{Best: ev.Base(), Trace: trace, Final: baseRes}
		}
		return search.Outcome{Best: bestA, Trace: trace, Final: bestRes}
	}

	evalPoint := func(a resources.Assignment, note string) error {
		res, err := ev.Evaluate(a)
		if err != nil {
			return err
		}
		feasible := !res.OOM && res.E2EMS <= sloMS
		accepted := feasible && res.Cost < bestCost

		cost, run := res.Cost, res.E2EMS
		if res.Cost > worstCost {
			worstCost = res.Cost
		}
		if res.OOM {
			// Penalize: the surrogate must steer away from OOM regions, and
			// the partial (aborted) cost/latency would look attractive.
			cost = worstCost * 1.5
			if run < sloMS*1.5 {
				run = sloMS * 1.5
			}
		}
		if len(xs) == 0 {
			baseRes = res // first point is always the base configuration
		}
		xs = append(xs, encode(groups, lim, a))
		costObs = append(costObs, cost)
		runObs = append(runObs, run)
		if accepted {
			bestCost = res.Cost
			bestA = a.Clone()
			bestRes = res
		}
		return trace.Record(a, res, accepted, note)
	}
	// stop translates an evalPoint error: enforcement halts return the
	// partial outcome, evaluation failures the error itself.
	stop := func(err error) (search.Outcome, error) {
		if search.Halted(err) {
			return outcome(), search.StopCause(err)
		}
		return search.Outcome{}, err
	}

	// Initial design: base configuration first (always feasible by
	// construction), then random grid points.
	if err := evalPoint(ev.Base(), "init-base"); err != nil {
		return stop(err)
	}
	for i := 1; i < o.opts.InitSamples && trace.Len() < o.opts.Budget; i++ {
		if err := evalPoint(randomAssignment(groups, lim, rng), "init-random"); err != nil {
			return stop(err)
		}
	}

	// penalized folds the SLO into a single objective (the paper baseline's
	// view of the problem).
	penalized := func(cost, run float64) float64 {
		if run > sloMS {
			cost *= 1 + o.opts.PenaltyWeight*(run/sloMS-1)
		}
		return cost
	}

	for trace.Len() < o.opts.Budget {
		var (
			objGP *gp
			runGP *gp
		)
		if o.opts.Constrained {
			objGP = newGP(o.opts.LengthScale, o.opts.SignalVar, o.opts.NoiseVar)
			runGP = newGP(o.opts.LengthScale, o.opts.SignalVar, o.opts.NoiseVar)
			if err := objGP.fit(xs, costObs); err != nil {
				return search.Outcome{}, err
			}
			if err := runGP.fit(xs, runObs); err != nil {
				return search.Outcome{}, err
			}
		} else {
			ys := make([]float64, len(xs))
			for i := range xs {
				ys[i] = penalized(costObs[i], runObs[i])
			}
			if o.opts.FitHyperparams {
				g, err := fitBest(xs, ys, lengthScaleGrid(o.opts.LengthScale), o.opts.SignalVar, o.opts.NoiseVar)
				if err != nil {
					return search.Outcome{}, err
				}
				objGP = g
			} else {
				objGP = newGP(o.opts.LengthScale, o.opts.SignalVar, o.opts.NoiseVar)
				if err := objGP.fit(xs, ys); err != nil {
					return search.Outcome{}, err
				}
			}
		}

		incumbent := bestCost
		if math.IsInf(incumbent, 1) {
			// No feasible point yet: improve on the cheapest observation.
			incumbent = costObs[0]
			for _, c := range costObs {
				if c < incumbent {
					incumbent = c
				}
			}
		}

		var bestX []float64
		bestAcq := math.Inf(-1)
		for c := 0; c < o.opts.Candidates; c++ {
			x := o.candidate(groups, lim, rng, bestA)
			mu, sd, err := objGP.predict(x)
			if err != nil {
				return search.Outcome{}, err
			}
			acq := mathx.ExpectedImprovement(mu, sd, incumbent)
			if o.opts.Constrained {
				muR, sdR, err := runGP.predict(x)
				if err != nil {
					return search.Outcome{}, err
				}
				var pf float64
				if sdR <= 0 {
					if muR <= sloMS {
						pf = 1
					}
				} else {
					pf = mathx.NormCDF((sloMS - muR) / sdR)
				}
				acq *= pf
			}
			if acq > bestAcq {
				bestAcq = acq
				bestX = x
			}
		}
		a := decode(groups, lim, bestX)
		if err := evalPoint(a, "acquire"); err != nil {
			return stop(err)
		}
	}

	return outcome(), nil
}

// candidate draws one acquisition candidate. The paper's baseline samples
// the discretized space uniformly (LocalFrac = 0); setting LocalFrac > 0
// mixes in Gaussian perturbations of the incumbent, an extension that makes
// BO behave like a local refiner late in the search.
func (o *Optimizer) candidate(groups []string, lim resources.Limits, rng *rand.Rand, incumbent resources.Assignment) []float64 {
	d := 2 * len(groups)
	x := make([]float64, d)
	if incumbent != nil && o.opts.LocalFrac > 0 && rng.Float64() < o.opts.LocalFrac {
		base := encode(groups, lim, incumbent)
		for i := range x {
			v := base[i] + rng.NormFloat64()*0.05
			x[i] = clamp01(v)
		}
		return x
	}
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

func randomAssignment(groups []string, lim resources.Limits, rng *rand.Rand) resources.Assignment {
	a := make(resources.Assignment, len(groups))
	for _, g := range groups {
		a[g] = lim.Snap(lim.Denormalize(rng.Float64(), rng.Float64()))
	}
	return a
}

// lengthScaleGrid brackets the configured length scale for type-II ML
// selection.
func lengthScaleGrid(center float64) []float64 {
	return []float64{center / 2, center, center * 2, center * 4}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

var _ search.Searcher = (*Optimizer)(nil)
