package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/testutil"
	"aarc/internal/workloads"
)

func TestOpQueuePriorityOrder(t *testing.T) {
	q := newOpQueue(false)
	a := &op{group: "a", typ: resources.CPU}
	b := &op{group: "b", typ: resources.CPU}
	c := &op{group: "c", typ: resources.CPU}
	q.push(a, 1)
	q.push(b, 5)
	q.push(c, 3)
	if got := q.pop(); got != b {
		t.Errorf("first pop = %v, want b (highest priority)", got)
	}
	if got := q.pop(); got != c {
		t.Errorf("second pop = %v, want c", got)
	}
	if got := q.pop(); got != a {
		t.Errorf("third pop = %v, want a", got)
	}
	if q.pop() != nil {
		t.Error("empty queue should pop nil")
	}
}

func TestOpQueueInfinityFirstFIFOTies(t *testing.T) {
	q := newOpQueue(false)
	x := &op{group: "x"}
	y := &op{group: "y"}
	z := &op{group: "z"}
	q.push(x, math.Inf(1))
	q.push(y, math.Inf(1))
	q.push(z, 100)
	// Both infinities precede the finite priority; among equals FIFO.
	if q.pop() != x || q.pop() != y || q.pop() != z {
		t.Error("infinite priorities should pop first, in FIFO order")
	}
}

func TestOpQueueFIFOMode(t *testing.T) {
	q := newOpQueue(true)
	a := &op{group: "a"}
	b := &op{group: "b"}
	q.push(a, 1)
	q.push(b, 100)
	if q.pop() != a || q.pop() != b {
		t.Error("FIFO mode must ignore priorities")
	}
}

func TestOpQueueNaNSafe(t *testing.T) {
	q := newOpQueue(false)
	a := &op{group: "a"}
	b := &op{group: "b"}
	q.push(a, math.NaN())
	q.push(b, 1)
	if q.pop() != b {
		t.Error("NaN priority must sort last, not corrupt the heap")
	}
}

func TestOpString(t *testing.T) {
	o := &op{group: "g", typ: resources.Memory, step: 512, trial: 2, priority: 7}
	if s := o.String(); !strings.Contains(s, "g/mem") || !strings.Contains(s, "512") {
		t.Errorf("op.String = %q", s)
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.normalize()
	d := DefaultOptions()
	if o.MaxTrail != d.MaxTrail || o.FuncTrial != d.FuncTrial ||
		o.CPUStep0 != d.CPUStep0 || o.MemStep0 != d.MemStep0 {
		t.Errorf("normalize zero = %+v", o)
	}
	if got := (Options{SLOMargin: 0.9}).normalize().SLOMargin; got != 0.5 {
		t.Errorf("margin cap = %v, want 0.5", got)
	}
	if got := (Options{SLOMargin: -1}).normalize().SLOMargin; got != 0 {
		t.Errorf("negative margin = %v, want 0", got)
	}
}

func TestSearchRejectsPlainEvaluator(t *testing.T) {
	a := New(DefaultOptions())
	_, err := a.Search(context.Background(), plainEvaluator{}, search.Options{SLOMS: 1000})
	if err == nil || !strings.Contains(err.Error(), "DAG") {
		t.Errorf("plain evaluator should be rejected: %v", err)
	}
}

// plainEvaluator satisfies search.Evaluator but not core.Evaluator.
type plainEvaluator struct{}

func (plainEvaluator) Evaluate(resources.Assignment) (search.Result, error) {
	return search.Result{}, nil
}
func (plainEvaluator) Functions() []string        { return nil }
func (plainEvaluator) Limits() resources.Limits   { return resources.DefaultLimits() }
func (plainEvaluator) Base() resources.Assignment { return nil }

func TestSearchRejectsBadSLO(t *testing.T) {
	spec := testutil.ChainSpec(60_000)
	runner := testutil.NewRunner(t, spec, false, 1)
	if _, err := New(DefaultOptions()).Search(context.Background(), runner, search.Options{SLOMS: 0}); err == nil {
		t.Error("zero SLO should error")
	}
}

func TestSearchInfeasibleBase(t *testing.T) {
	// An SLO no configuration can meet: the base config itself violates it.
	spec := testutil.ChainSpec(1_000)
	runner := testutil.NewRunner(t, spec, false, 1)
	_, err := New(DefaultOptions()).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
	if err == nil || !strings.Contains(err.Error(), "base configuration") {
		t.Errorf("infeasible base should be reported: %v", err)
	}
}

func TestSearchChainBasics(t *testing.T) {
	spec := testutil.ChainSpec(60_000)
	runner := testutil.NewRunner(t, spec, true, 7)
	outcome, err := New(DefaultOptions()).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
	if err != nil {
		t.Fatal(err)
	}
	if err := search.ValidateAssignment(runner, outcome.Best); err != nil {
		t.Fatalf("returned assignment invalid: %v", err)
	}
	if outcome.Trace.Len() == 0 || outcome.Trace.Samples[0].Note != "init" {
		t.Error("trace should start with the init sample")
	}

	// The found config must be SLO-compliant and cheaper than base.
	res, err := runner.Evaluate(outcome.Best)
	if err != nil {
		t.Fatal(err)
	}
	if res.E2EMS > spec.SLOMS {
		t.Errorf("final config violates SLO: %.0f > %.0f", res.E2EMS, spec.SLOMS)
	}
	baseRes, _ := runner.Evaluate(runner.Base())
	if res.Cost >= baseRes.Cost {
		t.Errorf("final cost %.0f should beat base cost %.0f", res.Cost, baseRes.Cost)
	}
	// Every function should have been reconfigured below base.
	for g, cfg := range outcome.Best {
		base := spec.Base[g]
		if cfg.CPU > base.CPU && cfg.MemMB > base.MemMB {
			t.Errorf("group %s was never shrunk: %v vs base %v", g, cfg, base)
		}
	}
}

func TestSearchDiamondSchedulesDetour(t *testing.T) {
	spec := testutil.DiamondSpec(120_000)
	runner := testutil.NewRunner(t, spec, true, 11)
	outcome, err := New(DefaultOptions()).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
	if err != nil {
		t.Fatal(err)
	}
	// The detour branch m2 must have been configured too (not left at base).
	base := spec.Base["m2"]
	got := outcome.Best["m2"]
	if got == base {
		t.Errorf("detour function m2 left at base config %v", got)
	}
	res, _ := runner.Evaluate(outcome.Best)
	if res.E2EMS > spec.SLOMS {
		t.Errorf("diamond SLO violated: %v", res.E2EMS)
	}
}

// Property over seeds: AARC never returns an SLO-violating configuration on
// the chain workload (the paper's Table II claim).
func TestSearchSLOComplianceAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		spec := testutil.ChainSpec(45_000)
		runner := testutil.NewRunner(t, spec, true, seed)
		outcome, err := New(DefaultOptions()).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Average several validation runs to smooth noise.
		var sum float64
		const n = 5
		for i := 0; i < n; i++ {
			res, err := runner.Evaluate(outcome.Best)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.E2EMS
		}
		if avg := sum / n; avg > spec.SLOMS {
			t.Errorf("seed %d: avg e2e %.0f violates SLO %.0f", seed, avg, spec.SLOMS)
		}
	}
}

func TestSearchRespectsMaxTrail(t *testing.T) {
	spec := testutil.ChainSpec(60_000)
	runner := testutil.NewRunner(t, spec, true, 3)
	opts := DefaultOptions()
	opts.MaxTrail = 5
	opts.ValidationRuns = 0 // isolate the MaxTrail bound from validation samples
	outcome, err := New(opts).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
	if err != nil {
		t.Fatal(err)
	}
	// init + at most MaxTrail per configurePath call; the chain has one
	// path (no detours), so the trace is bounded by 1 + MaxTrail.
	if outcome.Trace.Len() > 1+opts.MaxTrail {
		t.Errorf("trace %d exceeds MaxTrail bound %d", outcome.Trace.Len(), 1+opts.MaxTrail)
	}
}

func TestCoupledOnlyAblation(t *testing.T) {
	spec := testutil.ChainSpec(60_000)
	runner := testutil.NewRunner(t, spec, true, 5)
	opts := DefaultOptions()
	opts.CoupledOnly = true
	outcome, err := New(opts).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
	if err != nil {
		t.Fatal(err)
	}
	// Every accepted configuration change keeps CPU coupled to memory.
	for _, s := range outcome.Trace.Samples {
		if !s.Accepted || s.Note == "init" {
			continue
		}
		for g, cfg := range s.Assignment {
			if cfg == spec.Base[g] {
				continue // untouched groups keep the decoupled base
			}
			want := cfg.MemMB / resources.CoupledMemPerCPU
			if math.Abs(cfg.CPU-want) > spec.Limits.CPUStep/2+1e-9 {
				t.Fatalf("coupled-only violated for %s: %v (want cpu ~%.2f)", g, cfg, want)
			}
		}
	}
}

func TestNoSubpathsAblation(t *testing.T) {
	spec := testutil.DiamondSpec(120_000)
	runner := testutil.NewRunner(t, spec, true, 11)
	opts := DefaultOptions()
	opts.NoSubpaths = true
	outcome, err := New(opts).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
	if err != nil {
		t.Fatal(err)
	}
	// The detour function keeps its base config.
	if outcome.Best["m2"] != spec.Base["m2"] {
		t.Errorf("NoSubpaths should leave m2 at base, got %v", outcome.Best["m2"])
	}
}

func TestFIFOAndNoBackoffVariantsComplete(t *testing.T) {
	for _, mutate := range []func(*Options){
		func(o *Options) { o.FIFO = true },
		func(o *Options) { o.NoBackoff = true },
	} {
		spec := testutil.ChainSpec(60_000)
		runner := testutil.NewRunner(t, spec, true, 13)
		opts := DefaultOptions()
		mutate(&opts)
		outcome, err := New(opts).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
		if err != nil {
			t.Fatal(err)
		}
		res, _ := runner.Evaluate(outcome.Best)
		if res.E2EMS > spec.SLOMS {
			t.Errorf("variant violates SLO: %v", res.E2EMS)
		}
	}
}

func TestTraceRuntimeTrendsUpCostTrendsDown(t *testing.T) {
	// The paper observes (Fig 6/7) that under AARC runtime trends up toward
	// the SLO while cost trends down. Verify the trend on accepted samples
	// of the chatbot workload: last accepted cost < first cost, last
	// accepted runtime > first runtime.
	spec := workloads.Chatbot()
	runner := testutil.NewRunner(t, spec, true, 42)
	outcome, err := New(DefaultOptions()).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
	if err != nil {
		t.Fatal(err)
	}
	var accepted []search.Sample
	for _, s := range outcome.Trace.Samples {
		if s.Accepted {
			accepted = append(accepted, s)
		}
	}
	if len(accepted) < 3 {
		t.Fatalf("too few accepted samples: %d", len(accepted))
	}
	first, last := accepted[0], accepted[len(accepted)-1]
	if last.Cost >= first.Cost {
		t.Errorf("cost should trend down: first %.0f last %.0f", first.Cost, last.Cost)
	}
	if last.E2EMS <= first.E2EMS {
		t.Errorf("runtime should trend up: first %.0f last %.0f", first.E2EMS, last.E2EMS)
	}
}

func TestChatbotScatterSharesGroupConfig(t *testing.T) {
	spec := workloads.Chatbot()
	runner := testutil.NewRunner(t, spec, true, 42)
	outcome, err := New(DefaultOptions()).Search(context.Background(), runner, search.Options{SLOMS: spec.SLOMS})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly one config per group: classify instances share one entry.
	if len(outcome.Best) != len(spec.FunctionGroups()) {
		t.Errorf("assignment has %d entries, want %d groups", len(outcome.Best), len(spec.FunctionGroups()))
	}
	if _, ok := outcome.Best["classify"]; !ok {
		t.Error("classify group missing")
	}
}

func TestName(t *testing.T) {
	if New(DefaultOptions()).Name() != "AARC" {
		t.Error("Name should be AARC")
	}
}

func TestValidateAndRepairRestoresHeaviestGroup(t *testing.T) {
	spec := testutil.ChainSpec(30_000)
	runner := testutil.NewRunner(t, spec, true, 17)

	// Hand-build a state whose current assignment grossly violates the SLO:
	// function b (the heaviest) squeezed to 0.1 vCPU runs ~100s.
	cur := runner.Base()
	cur["b"] = resources.Config{CPU: 0.1, MemMB: 512}
	st := &state{
		ev:        runner,
		lim:       runner.Limits(),
		opts:      DefaultOptions(),
		cur:       cur,
		trace:     &search.Trace{Method: "AARC"},
		scheduled: map[string]bool{},
		e2eSLO:    spec.SLOMS,
	}
	a := New(DefaultOptions())
	if err := a.validateAndRepair(st); err != nil {
		t.Fatal(err)
	}
	if st.cur["b"] != spec.Base["b"] {
		t.Errorf("repair should restore b to base, got %v", st.cur["b"])
	}
	res, err := runner.Evaluate(st.cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.E2EMS > spec.SLOMS {
		t.Errorf("repaired config still violates: %.0f > %.0f", res.E2EMS, spec.SLOMS)
	}
	// Validation samples were recorded.
	found := false
	for _, s := range st.trace.Samples {
		if s.Note == "validate" {
			found = true
			break
		}
	}
	if !found {
		t.Error("trace should contain validate samples")
	}
}

func TestValidateAndRepairNoopWhenCompliant(t *testing.T) {
	spec := testutil.ChainSpec(60_000)
	runner := testutil.NewRunner(t, spec, true, 18)
	st := &state{
		ev:        runner,
		lim:       runner.Limits(),
		opts:      DefaultOptions(),
		cur:       runner.Base(),
		trace:     &search.Trace{Method: "AARC"},
		scheduled: map[string]bool{},
		e2eSLO:    spec.SLOMS,
	}
	before := st.cur.Clone()
	if err := New(DefaultOptions()).validateAndRepair(st); err != nil {
		t.Fatal(err)
	}
	if !st.cur.Equal(before) {
		t.Error("compliant config should be left untouched")
	}
	if st.trace.Len() != DefaultOptions().ValidationRuns {
		t.Errorf("expected exactly %d validation samples, got %d",
			DefaultOptions().ValidationRuns, st.trace.Len())
	}
}

// TestSearchDeadlineStopsDetourListing: the layered 112-node Scale spec,
// seed 4, has exponentially many detour subpaths through the groups left
// unscheduled by the critical path, so listing them takes seconds. Under
// a 200 ms deadline the search must notice inside the listing and return
// DeadlineExceeded, with its partial outcome, soon after the deadline.
func TestSearchDeadlineStopsDetourListing(t *testing.T) {
	spec := testutil.ScaleSpec(t, workloads.TopologyLayered, 112, 4)
	runner := testutil.NewRunner(t, spec, true, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	deadline, _ := ctx.Deadline()
	out, err := New(DefaultOptions()).Search(ctx, runner, search.Options{SLOMS: spec.SLOMS})
	late := time.Since(deadline)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if late > 100*time.Millisecond {
		t.Errorf("search returned %v after its deadline, want within 100ms", late)
	}
	if out.Trace == nil || len(out.Best) != len(spec.Base) {
		t.Errorf("cancelled search returned no partial outcome: %+v", out)
	}
}
