package core

import (
	"fmt"
	"math"
	"slices"

	"aarc/internal/resources"
	"aarc/internal/search"
)

// state is the mutable search state shared between the Graph-Centric
// Scheduler and the Priority Configurator: the currently accepted
// assignment, its last measurement, the sampling trace and the set of
// already-scheduled function groups.
//
// curRes and cand are the two result buffers the evaluator writes into: a
// probe is measured into cand, and an accepted probe swaps the two.
type state struct {
	ev        Evaluator
	lim       resources.Limits
	opts      Options
	cur       resources.Assignment
	curRes    search.Result
	cand      search.Result
	trace     *search.Trace
	scheduled map[string]bool
	e2eSLO    float64
}

// measure evaluates st.cur into st.cand and, on success, makes it st.curRes.
func (st *state) measure() error {
	if err := st.ev.EvaluateInto(st.cur, &st.cand); err != nil {
		return err
	}
	st.curRes, st.cand = st.cand, st.curRes
	return nil
}

// unscheduled reports whether a node's group is still to be configured.
func (st *state) unscheduled(node string) bool { return !st.scheduled[st.ev.GroupOf(node)] }

// note formats a probe's sample note, only for a trace that keeps it.
func (st *state) note(verb string, o *op) string {
	if !st.trace.KeepsSamples() {
		return ""
	}
	return fmt.Sprintf("%s %s/%s", verb, o.group, o.typ)
}

// effSLO applies the safety margin to a latency bound.
func (st *state) effSLO(slo float64) float64 { return slo * (1 - st.opts.SLOMargin) }

// shrink applies op's deallocation to cfg: reduce one dimension by the
// current step, snap to the grid and clamp to the limits. Under CoupledOnly
// the CPU follows memory at the 1 vCPU / 1024 MB ratio and CPU ops are
// no-ops (the caller never enqueues them).
func (st *state) shrink(cfg resources.Config, o *op) resources.Config {
	next := cfg
	switch o.typ {
	case resources.CPU:
		next.CPU -= o.step
	case resources.Memory:
		next.MemMB -= o.step
		if st.opts.CoupledOnly {
			next.CPU = next.MemMB / resources.CoupledMemPerCPU
		}
	}
	return st.lim.Snap(next)
}

// backoff halves the op's step (exponential back-off, Algorithm 2 line 15)
// down to the grid granularity and consumes one trial. With NoBackoff the
// step stays fixed.
func (st *state) backoff(o *op) {
	o.trial--
	if st.opts.NoBackoff {
		return
	}
	floor := st.lim.CPUStep
	if o.typ == resources.Memory {
		floor = st.lim.MemStepMB
	}
	o.step /= 2
	if o.step < floor {
		o.step = floor
	}
}

// stepFloor reports whether the op is already at the minimal step size.
func (st *state) stepFloor(o *op) bool {
	floor := st.lim.CPUStep
	if o.typ == resources.Memory {
		floor = st.lim.MemStepMB
	}
	return o.step <= floor+1e-12
}

// configurePath is the paper's priority_configuration(L, SLO) (Algorithm 2).
// pathNodes are the not-yet-scheduled DAG nodes of the path L; pathSLO is
// the latency budget for that path (the end-to-end SLO for the critical
// path, the runtime_sum window for detour sub-paths). The function mutates
// st.cur in place and marks every touched group as scheduled.
//
// Each probe shrinks one group of st.cur in place and measures it into
// st.cand; a reject, an error or a halt puts the group's configuration
// back, so st.cur and st.curRes always describe the last accepted
// configuration outside a probe.
func (st *state) configurePath(pathNodes []string, pathSLO float64) error {
	// Deduplicate configuration groups while preserving path order
	// (scatter siblings on the same path share one configuration).
	var groups []string
	seen := make(map[string]bool)
	for _, n := range pathNodes {
		g := st.ev.GroupOf(n)
		if !seen[g] && !st.scheduled[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	if len(groups) == 0 {
		return nil
	}
	for _, g := range groups {
		if _, ok := st.cur[g]; !ok {
			return fmt.Errorf("core: group %q missing from current assignment", g)
		}
	}

	// The result entries the path's runtime and each group's cost sum
	// over, resolved once: the path's nodes in path order, each group's
	// nodes in Layout order (the orders PathRuntimeMS and GroupSteadyCost
	// add in). A node outside the layout adds nothing to either.
	var pathIdx []int32
	for _, n := range pathNodes {
		if i, ok := st.curRes.Layout.Index(n); ok {
			pathIdx = append(pathIdx, int32(i))
		}
	}
	groupIdx := make([][]int32, len(groups))
	for i := range st.curRes.Nodes {
		if k := slices.Index(groups, st.curRes.Nodes[i].Group); k >= 0 {
			groupIdx[k] = append(groupIdx[k], int32(i))
		}
	}

	// Algorithm 2 lines 2–10: one cpu op and one mem op per function,
	// initial priority ∞ so every op is probed at least once.
	pq := newOpQueue(st.opts.FIFO)
	types := opTypes
	if st.opts.CoupledOnly {
		types = opTypes[1:]
	}
	for k, g := range groups {
		for _, typ := range types {
			step := st.opts.CPUStep0
			if typ == resources.Memory {
				step = st.opts.MemStep0
			}
			pq.push(&op{group: g, gi: k, typ: typ, step: step, trial: st.opts.FuncTrial}, math.Inf(1))
		}
	}

	count := 0
	for pq.Len() > 0 && count < st.opts.MaxTrail {
		o := pq.pop()
		count++

		curCfg := st.cur[o.group]
		nextCfg := st.shrink(curCfg, o)
		if nextCfg == curCfg {
			// Already at the limit in this dimension at this step size; try
			// a finer step unless exhausted.
			if st.stepFloor(o) {
				continue // op dead: nothing left to deallocate
			}
			st.backoff(o)
			if o.trial > 0 {
				pq.push(o, 0)
			}
			continue
		}

		// deallocate(op): apply tentatively and measure.
		st.cur[o.group] = nextCfg
		if err := st.ev.EvaluateInto(st.cur, &st.cand); err != nil {
			st.cur[o.group] = curCfg
			return err
		}
		res := &st.cand

		pathRuntime := res.SumRuntimeMS(pathIdx)
		// Compare steady-state (warm) costs: re-configuring a function
		// forces one cold start, which must not read as a recurring cost
		// increase (Table I's deallocate measures the configuration's
		// steady cost).
		curGroupCost := st.curRes.SumSteadyCost(groupIdx[o.gi])
		newGroupCost := res.SumSteadyCost(groupIdx[o.gi])
		violated := res.OOM ||
			res.E2EMS > st.effSLO(st.e2eSLO) ||
			pathRuntime > st.effSLO(pathSLO) ||
			newGroupCost >= curGroupCost

		if violated {
			// Lines 14–18: revert, back off, re-enqueue at priority 0 while
			// trials remain.
			err := st.trace.Record(st.cur, *res, false, st.note("revert", o))
			st.cur[o.group] = curCfg
			if err != nil {
				return err
			}
			st.backoff(o)
			if o.trial > 0 {
				pq.push(o, 0)
			}
			continue
		}

		// Lines 19–22: accept, re-enqueue keyed by the cost reduction.
		reduced := curGroupCost - newGroupCost
		st.curRes, st.cand = st.cand, st.curRes
		if err := st.trace.Record(st.cur, st.curRes, true, st.note("accept", o)); err != nil {
			return err
		}
		pq.push(o, reduced)
	}

	for _, g := range groups {
		st.scheduled[g] = true
	}
	return nil
}

// opTypes are the dimensions a group's ops shrink, memory last so that
// CoupledOnly can take opTypes[1:].
var opTypes = []resources.ResourceType{resources.CPU, resources.Memory}
