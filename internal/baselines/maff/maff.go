// Package maff implements the MAFF baseline (Zubko et al., self-adaptive
// memory optimization for serverless functions) as the AARC paper adapts it
// to workflows: a memory-centric gradient descent over *coupled*
// configurations — vCPU follows memory at 1 core per 1024 MB — that walks
// memory downward in fixed increments to minimize cost and, on the first
// SLO violation (or OOM), reverts to the previous step and terminates.
package maff

import (
	"context"
	"fmt"

	"aarc/internal/resources"
	"aarc/internal/search"
)

// Version is the MAFF implementation version folded into serving-layer
// fingerprints. internal/search/version.lock decides when it moves: bump
// it when TestMethodPins reports that maff's stored bodies moved. A change
// that moves a search trace but no stored body only re-records core's
// searchTraceDigest.
const Version = 1

func init() {
	search.Register("maff", Version, func(seed uint64) search.Searcher {
		return New(DefaultOptions())
	})
}

// Options tunes the MAFF baseline.
type Options struct {
	// StepMB is the fixed memory decrement per round (64 MB granularity in
	// the paper's setup).
	StepMB float64
	// CostIncreaseTol terminates the descent when cost rises this fraction
	// above the best cost seen (the gradient turned uphill). Zero disables
	// the check; the SLO guard then provides the only stop.
	CostIncreaseTol float64
}

// DefaultOptions matches the paper's adaptation: 64 MB steps, and descent
// terminated by the SLO guard alone ("if a workflow's SLO is violated, the
// process reverts to the previous step and terminates", §IV-A.b).
func DefaultOptions() Options {
	return Options{StepMB: 64, CostIncreaseTol: 0}
}

func (o Options) normalize() Options {
	if o.StepMB <= 0 {
		o.StepMB = DefaultOptions().StepMB
	}
	if o.CostIncreaseTol < 0 {
		o.CostIncreaseTol = 0
	}
	return o
}

// Optimizer is the MAFF searcher. It implements search.Searcher.
type Optimizer struct {
	opts Options
}

// New returns a MAFF searcher.
func New(opts Options) *Optimizer { return &Optimizer{opts: opts.normalize()} }

// Name implements search.Searcher.
func (o *Optimizer) Name() string { return "MAFF" }

// coupledAt returns the assignment that gives every group the coupled
// configuration derived from its own memory value in mem.
func coupledAt(groups []string, lim resources.Limits, mem map[string]float64) resources.Assignment {
	a := make(resources.Assignment, len(groups))
	for _, g := range groups {
		a[g] = lim.Snap(resources.Coupled(mem[g]))
	}
	return a
}

// Search walks all function memories downward together from the base
// configuration's memory sizes, with CPU proportionally coupled. The walk
// stops when (a) the SLO is violated or a function OOMs — revert and
// terminate, per the paper — (b) cost turns uphill beyond the tolerance, or
// (c) the memory floor is reached.
func (o *Optimizer) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	sloMS := opts.SLOMS
	if sloMS <= 0 {
		return search.Outcome{}, fmt.Errorf("maff: non-positive SLO %v", sloMS)
	}
	groups := ev.Functions()
	lim := ev.Limits()
	trace := search.NewTrace(ctx, "MAFF", opts)

	mem := make(map[string]float64, len(groups))
	for _, g := range groups {
		mem[g] = ev.Base()[g].MemMB
	}

	cur := coupledAt(groups, lim, mem)
	res, err := ev.Evaluate(cur)
	if err != nil {
		return search.Outcome{}, err
	}
	curRes := res // last measurement of cur
	if err := trace.Record(cur, res, !res.OOM && res.E2EMS <= sloMS, "init-coupled"); err != nil {
		return search.Outcome{Best: cur, Trace: trace, Final: curRes}, search.StopCause(err)
	}
	if res.OOM || res.E2EMS > sloMS {
		// Even the coupled base misses the SLO: nothing MAFF can do but
		// return it (the paper's adaptation has no recovery move).
		return search.Outcome{Best: cur, Trace: trace, Final: curRes}, nil
	}
	bestCost := res.Cost

descend:
	for {
		next := make(map[string]float64, len(groups))
		moved := false
		for _, g := range groups {
			m := mem[g] - o.opts.StepMB
			if m < lim.MinMemMB {
				m = lim.MinMemMB
			}
			if m != mem[g] {
				moved = true
			}
			next[g] = m
		}
		if !moved {
			break // memory floor everywhere
		}
		candidate := coupledAt(groups, lim, next)
		res, err = ev.Evaluate(candidate)
		if err != nil {
			return search.Outcome{}, err
		}
		switch {
		case res.OOM || res.E2EMS > sloMS:
			// Revert to the previous step and terminate; a halt raised while
			// recording the reverted probe changes nothing about the result.
			if err := trace.Record(candidate, res, false, "revert-slo"); err != nil {
				return search.Outcome{Best: cur, Trace: trace, Final: curRes}, search.StopCause(err)
			}
			break descend
		case o.opts.CostIncreaseTol > 0 && res.Cost > bestCost*(1+o.opts.CostIncreaseTol):
			if err := trace.Record(candidate, res, false, "revert-cost"); err != nil {
				return search.Outcome{Best: cur, Trace: trace, Final: curRes}, search.StopCause(err)
			}
			break descend
		}
		mem = next
		cur = candidate
		curRes = res
		if err := trace.Record(candidate, res, true, "descend"); err != nil {
			return search.Outcome{Best: cur, Trace: trace, Final: curRes}, search.StopCause(err)
		}
		if res.Cost < bestCost {
			bestCost = res.Cost
		}
	}

	return search.Outcome{Best: cur, Trace: trace, Final: curRes}, nil
}

var _ search.Searcher = (*Optimizer)(nil)
