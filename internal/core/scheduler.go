package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"aarc/internal/dag"
	"aarc/internal/search"
)

// Version is the AARC implementation version folded into serving-layer
// fingerprints. internal/search/version.lock decides when it moves: it
// pins aarc's version with a digest of the bodies the service stores for
// a fixed corpus, and TestMethodPins fails when that digest moves at an
// unchanged version. Bump it then, and cached recommendations from the
// old implementation self-invalidate. A deliberate change that moves a
// search trace re-records searchTraceDigest in digest_test.go; if it
// moves no stored body (a sample note's format, say), that is all it
// needs.
const Version = 1

func init() {
	search.Register("aarc", Version, func(seed uint64) search.Searcher {
		return New(DefaultOptions())
	})
}

// AARC is the paper's automated affinity-aware resource configurator. It
// implements search.Searcher; the evaluator passed to Search must also
// satisfy core.Evaluator (expose the DAG), which *workflow.Runner does.
type AARC struct {
	opts Options
}

// New returns an AARC searcher with the given options (zero fields fall
// back to DefaultOptions).
func New(opts Options) *AARC {
	return &AARC{opts: opts.normalize()}
}

// Name implements search.Searcher.
func (a *AARC) Name() string { return "AARC" }

// Search implements Algorithm 1 (Overall Scheduling):
//
//  1. assign the over-provisioned base configuration to every function,
//  2. execute the workflow and weight the DAG with measured runtimes,
//  3. extract the critical path and configure it against the end-to-end SLO
//     with the Priority Configurator,
//  4. enumerate detour sub-paths, derive each sub-SLO from the runtime_sum
//     window between its anchors minus already-scheduled functions, and
//     configure the remaining functions,
//  5. return the union of all per-function configurations.
func (a *AARC) Search(ctx context.Context, ev search.Evaluator, opts search.Options) (search.Outcome, error) {
	wev, ok := ev.(Evaluator)
	if !ok {
		return search.Outcome{}, errors.New("core: evaluator does not expose the workflow DAG (want core.Evaluator)")
	}
	sloMS := opts.SLOMS
	if sloMS <= 0 {
		return search.Outcome{}, fmt.Errorf("core: non-positive SLO %v", sloMS)
	}

	st := &state{
		ev:        wev,
		lim:       ev.Limits(),
		opts:      a.opts,
		cur:       ev.Base(),
		trace:     search.NewTrace(ctx, "AARC", opts),
		scheduled: make(map[string]bool),
		e2eSLO:    sloMS,
	}
	// halt maps an error bubbling out of the algorithm to Search's return:
	// trace-enforcement halts (budget / cancellation) yield the partial
	// outcome — st.cur and st.curRes always describe the last accepted
	// configuration — while genuine evaluation failures keep the
	// zero-Outcome behavior.
	halt := func(err error) (search.Outcome, error) {
		if search.Halted(err) {
			return search.Outcome{Best: st.cur, Trace: st.trace, Final: st.curRes}, search.StopCause(err)
		}
		return search.Outcome{}, err
	}

	// Lines 2–5: base configuration, profiling execution.
	if err := st.measure(); err != nil {
		return search.Outcome{}, err
	}
	res := &st.curRes
	if res.OOM {
		return search.Outcome{}, search.InfeasibleError(fmt.Sprintf("core: base configuration OOMs at node %q; raise the base config", res.Fail))
	}
	if err := st.trace.Record(st.cur, *res, true, "init"); err != nil {
		return halt(err)
	}
	if res.E2EMS > st.effSLO(sloMS) {
		return search.Outcome{Best: st.cur, Trace: st.trace, Final: st.curRes},
			search.InfeasibleError(fmt.Sprintf("core: base configuration misses the SLO (%.0f ms > %.0f ms); the workflow cannot be configured", res.E2EMS, sloMS))
	}

	// Line 6: critical path on the runtime-weighted DAG. The weights map
	// outlives the buffer it was read from.
	weights := res.NodeWeights()
	g := wev.Graph()
	critical, _, err := dag.CriticalPath(g, weights)
	if err != nil {
		return search.Outcome{}, err
	}

	// Lines 7–9: configure the critical path against the full SLO.
	if err := st.configurePath(critical, sloMS); err != nil {
		return halt(err)
	}

	// Lines 10–21: configure detour sub-paths against their windows. Every
	// critical node's group is scheduled now, and the scheduled set only
	// grows, so a subpath whose interior holds no group unscheduled at
	// this point can never configure anything: scheduleSubpath would find
	// nothing pending on it. The listing leaves those out, and the loop
	// ends once every group is scheduled. A listing can still hold
	// exponentially many subpaths, most of which configure nothing and so
	// record no sample: the loop checks the context itself.
	groups := len(ev.Functions())
	if !a.opts.NoSubpaths && len(st.scheduled) < groups {
		subpaths, err := dag.FindDetourSubpaths(ctx, g, critical, weights, st.unscheduled)
		if err != nil {
			return halt(err)
		}
		for _, sp := range subpaths {
			if len(st.scheduled) == groups {
				break
			}
			if err := ctx.Err(); err != nil {
				return halt(err)
			}
			if err := a.scheduleSubpath(st, critical, sp); err != nil {
				return halt(err)
			}
		}
	}

	// Final validation and repair: a lucky noisy measurement can let an
	// SLO-violating shrink slip through; re-measuring and restoring the
	// heaviest reconfigured function backs the paper's §IV-C.a claim that
	// AARC's configurations are reliably SLO-compliant.
	if a.opts.ValidationRuns > 0 {
		if err := a.validateAndRepair(st); err != nil {
			return halt(err)
		}
	}

	return search.Outcome{Best: st.cur, Trace: st.trace, Final: st.curRes}, nil
}

// validateAndRepair re-executes the final assignment ValidationRuns times;
// while the mean end-to-end latency misses the SLO, the group contributing
// the most runtime among reconfigured groups is restored to its base
// configuration. The loop is bounded by the number of groups.
func (a *AARC) validateAndRepair(st *state) error {
	base := st.ev.Base()
	for rounds := 0; rounds <= len(base); rounds++ {
		var mean float64
		for i := 0; i < a.opts.ValidationRuns; i++ {
			if err := st.measure(); err != nil {
				return err
			}
			mean += st.curRes.E2EMS
			if err := st.trace.Record(st.cur, st.curRes, true, "validate"); err != nil {
				return err
			}
		}
		mean /= float64(a.opts.ValidationRuns)
		last := &st.curRes
		if mean <= st.e2eSLO && !last.OOM {
			return nil
		}

		// Repair: restore the base allocation of the heaviest shrunken
		// group (largest total runtime contribution).
		worst := ""
		worstRuntime := -1.0
		perGroup := make(map[string]float64)
		for _, nr := range last.Nodes {
			perGroup[nr.Group] += nr.RuntimeMS
		}
		for g, rt := range perGroup {
			if st.cur[g] != base[g] && rt > worstRuntime {
				worst, worstRuntime = g, rt
			}
		}
		if worst == "" {
			return nil // everything already at base; nothing left to repair
		}
		st.cur = st.cur.Clone()
		st.cur[worst] = base[worst]
	}
	return nil
}

// scheduleSubpath performs lines 11–20 of Algorithm 1 for one detour branch:
// the sub-SLO starts as the runtime_sum window spanned on the critical path
// between the branch anchors; every already-scheduled function on the branch
// is popped and its (current) runtime subtracted; whatever functions remain
// are configured against the remaining window.
func (a *AARC) scheduleSubpath(st *state, critical []string, sp dag.Subpath) error {
	if !slices.ContainsFunc(sp.Nodes, st.unscheduled) {
		return nil // nothing left to configure on this branch
	}
	curWeights := st.curRes.NodeWeights()
	subSLO, err := dag.RuntimeSum(critical, sp.Start, sp.End, curWeights)
	if err != nil {
		return err
	}

	var pending []string
	for _, node := range sp.Nodes {
		if st.scheduled[st.ev.GroupOf(node)] {
			subSLO -= curWeights[node]
			continue
		}
		pending = append(pending, node)
	}
	if len(pending) == 0 {
		return nil
	}
	if subSLO <= 0 {
		// The window is already consumed by scheduled functions (possible
		// under measurement noise); keep the safe base/current configuration
		// for the remaining functions rather than risking the SLO.
		for _, node := range pending {
			st.scheduled[st.ev.GroupOf(node)] = true
		}
		return nil
	}
	return st.configurePath(pending, subSLO)
}

var _ search.Searcher = (*AARC)(nil)
