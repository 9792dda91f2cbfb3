package search

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"aarc/internal/resources"
)

func sampleResult(e2e, cost float64) Result {
	return Result{
		E2EMS: e2e,
		Cost:  cost,
		Nodes: []NodeResult{
			{Group: "g1", RuntimeMS: e2e / 2, Cost: cost / 2},
			{Group: "g2", RuntimeMS: e2e / 2, Cost: cost / 2},
		},
		Layout: NewLayout([]string{"a", "b"}),
	}
}

func TestTraceRecordAndSeries(t *testing.T) {
	tr := &Trace{Method: "X"}
	a := resources.Assignment{"g1": {CPU: 1, MemMB: 128}}
	tr.Record(a, sampleResult(100, 10), true, "init")
	tr.Record(a, sampleResult(200, 20), false, "probe")

	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Samples[0].Index != 0 || tr.Samples[1].Index != 1 {
		t.Error("indices should be assigned in order")
	}
	if got := tr.TotalRuntimeMS(); got != 300 {
		t.Errorf("TotalRuntimeMS = %v", got)
	}
	if got := tr.TotalCost(); got != 30 {
		t.Errorf("TotalCost = %v", got)
	}
	rs := tr.RuntimeSeries()
	cs := tr.CostSeries()
	if rs[0] != 100 || rs[1] != 200 || cs[0] != 10 || cs[1] != 20 {
		t.Errorf("series: %v %v", rs, cs)
	}
}

func TestTraceRecordClonesAssignment(t *testing.T) {
	tr := &Trace{}
	a := resources.Assignment{"g1": {CPU: 1, MemMB: 128}}
	tr.Record(a, sampleResult(1, 1), true, "")
	a["g1"] = resources.Config{CPU: 9, MemMB: 9999}
	if tr.Samples[0].Assignment["g1"].CPU == 9 {
		t.Error("trace should hold a snapshot, not a live reference")
	}
}

func TestTraceCSV(t *testing.T) {
	tr := &Trace{Method: "X"}
	a := resources.Assignment{"g1": {CPU: 1, MemMB: 128}}
	tr.Record(a, sampleResult(100, 10), true, "init")
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "index,e2e_ms,cost") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "init") || !strings.Contains(lines[1], "g1=") {
		t.Errorf("row = %q", lines[1])
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{
		Nodes: []NodeResult{
			{Group: "g", RuntimeMS: 100, ColdStartMS: 20, Cost: 50},
			{Group: "g", RuntimeMS: 200, Cost: 80},
			{Group: "h", RuntimeMS: 300, Cost: 10},
		},
		Layout: NewLayout([]string{"a", "b", "c"}),
	}
	if got := r.PathRuntimeMS([]string{"a", "c"}); got != 400 {
		t.Errorf("PathRuntimeMS = %v", got)
	}
	// Steady cost removes the cold-start fraction: a contributes 50*0.8.
	if got := r.GroupSteadyCost("g"); got != 50*0.8+80 {
		t.Errorf("GroupSteadyCost = %v", got)
	}
	// The index forms add the same terms, given the entries in order.
	if got := r.SumRuntimeMS([]int32{0, 2}); got != r.PathRuntimeMS([]string{"a", "c"}) {
		t.Errorf("SumRuntimeMS = %v", got)
	}
	if got := r.SumSteadyCost([]int32{0, 1}); got != r.GroupSteadyCost("g") {
		t.Errorf("SumSteadyCost = %v", got)
	}
	w := r.NodeWeights()
	if w["b"] != 200 || len(w) != 3 {
		t.Errorf("NodeWeights = %v", w)
	}
	if got := r.Node("c"); got.Group != "h" || got.RuntimeMS != 300 {
		t.Errorf("Node(c) = %+v", got)
	}
	if got := r.Node("zz"); got != (NodeResult{}) {
		t.Errorf("Node of an unknown ID = %+v, want zero", got)
	}
	if got := (Result{}).Node("a"); got != (NodeResult{}) {
		t.Errorf("Node on a layout-less result = %+v, want zero", got)
	}
}

// TestNodeWeightsSharedByCopies: a NewResult's weights map is built once
// and every later call, on any copy, returns that same map without
// allocating.
func TestNodeWeightsSharedByCopies(t *testing.T) {
	r := NewResult(NewLayout([]string{"a", "b", "c"}))
	for i := range r.Nodes {
		r.Nodes[i].RuntimeMS = float64(100 * (i + 1))
	}
	w := r.NodeWeights()
	if len(w) != 3 || w["a"] != 100 || w["c"] != 300 {
		t.Fatalf("NodeWeights = %v", w)
	}
	cp := r
	if allocs := testing.AllocsPerRun(100, func() { _ = cp.NodeWeights() }); allocs != 0 {
		t.Errorf("NodeWeights on a copy allocates %v times, want 0", allocs)
	}
	w["probe"] = 1
	if _, ok := cp.NodeWeights()["probe"]; !ok {
		t.Error("a copy of the Result built its own weights map")
	}
	// Without the memo (a hand-built Result) every call builds afresh.
	bare := Result{Nodes: r.Nodes, Layout: r.Layout}
	if _, ok := bare.NodeWeights()["probe"]; ok {
		t.Error("a Result without the memo returned a shared map")
	}
}

// TestNodeWeightsConcurrentFirstCalls: racing first calls on copies of one
// Result all get the one map (run under -race).
func TestNodeWeightsConcurrentFirstCalls(t *testing.T) {
	r := NewResult(NewLayout([]string{"a", "b", "c", "d"}))
	const callers = 8
	got := make([]map[string]float64, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int, r Result) {
			defer wg.Done()
			got[i] = r.NodeWeights()
		}(i, r)
	}
	wg.Wait()
	got[0]["probe"] = 1
	for i := range got {
		if _, ok := got[i]["probe"]; !ok || len(got[i]) != 5 {
			t.Fatalf("caller %d got a different weights map", i)
		}
	}
}

func TestGroupSteadyCostEdgeCases(t *testing.T) {
	r := Result{
		Nodes: []NodeResult{
			{Group: "g", RuntimeMS: 0, Cost: 5},                   // zero runtime
			{Group: "g", RuntimeMS: 10, ColdStartMS: 50, Cost: 5}, // cold > runtime
		},
		Layout: NewLayout([]string{"z", "o"}),
	}
	if got := r.GroupSteadyCost("g"); got != 0 {
		t.Errorf("degenerate steady cost = %v, want 0", got)
	}
}

// fakeEval implements Evaluator for ValidateAssignment tests.
type fakeEval struct {
	groups []string
	lim    resources.Limits
	base   resources.Assignment
}

func (f *fakeEval) Evaluate(resources.Assignment) (Result, error) { return Result{}, nil }
func (f *fakeEval) Functions() []string                           { return f.groups }
func (f *fakeEval) Limits() resources.Limits                      { return f.lim }
func (f *fakeEval) Base() resources.Assignment                    { return f.base.Clone() }

func TestValidateAssignment(t *testing.T) {
	ev := &fakeEval{
		groups: []string{"f", "g"},
		lim:    resources.DefaultLimits(),
		base: resources.Assignment{
			"f": {CPU: 1, MemMB: 128},
			"g": {CPU: 1, MemMB: 128},
		},
	}
	good := ev.Base()
	if err := ValidateAssignment(ev, good); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
	if err := ValidateAssignment(ev, resources.Assignment{"f": good["f"]}); err == nil {
		t.Error("missing group should fail")
	}
	wrongKey := resources.Assignment{"f": good["f"], "x": good["g"]}
	if err := ValidateAssignment(ev, wrongKey); err == nil {
		t.Error("wrong key should fail")
	}
	bad := good.Clone()
	bad["g"] = resources.Config{}
	if err := ValidateAssignment(ev, bad); err == nil {
		t.Error("invalid config should fail")
	}
	out := good.Clone()
	out["g"] = resources.Config{CPU: 99, MemMB: 128}
	if err := ValidateAssignment(ev, out); err == nil {
		t.Error("out-of-limits config should fail")
	}
}

// TestSummaryTraceMatchesFull feeds a summary trace and a full trace the
// same Record calls and requires both to read, bit for bit, the Len,
// TotalRuntimeMS and TotalCost of the full trace's samples after every
// call, and to halt alike: the sample budget, the simulated-time budget
// and cancellation. The runtimes and costs span nine orders of magnitude,
// so a total added in any other order than the samples' reads differently.
func TestSummaryTraceMatchesFull(t *testing.T) {
	cases := []struct {
		name     string
		opts     Options
		cancelAt int // cancel both contexts before this call; 0: never
		wantHalt bool
	}{
		{name: "no budget", opts: Options{SLOMS: 1}},
		{name: "sample budget", opts: Options{SLOMS: 1, MaxSamples: 37}, wantHalt: true},
		{name: "simulated-time budget", opts: Options{SLOMS: 1, MaxSimCostMS: 2e6}, wantHalt: true},
		{name: "cancellation", opts: Options{SLOMS: 1}, cancelAt: 23, wantHalt: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctxF, cancelF := context.WithCancel(context.Background())
			defer cancelF()
			ctxS, cancelS := context.WithCancel(context.Background())
			defer cancelS()
			sumOpts := c.opts
			sumOpts.Summary = true
			full := NewTrace(ctxF, "X", c.opts)
			sum := NewTrace(ctxS, "X", sumOpts)
			if !full.KeepsSamples() || sum.KeepsSamples() {
				t.Fatalf("KeepsSamples: full %v, summary %v", full.KeepsSamples(), sum.KeepsSamples())
			}
			rng := rand.New(rand.NewPCG(3, 5))
			a := resources.Assignment{"g1": {CPU: 1, MemMB: 128}}
			halted := false
			for i := 1; i <= 200 && !halted; i++ {
				if i == c.cancelAt {
					cancelF()
					cancelS()
				}
				r := sampleResult(math.Pow(10, 6*rng.Float64())*rng.Float64(), math.Pow(10, 9*rng.Float64()-4))
				errF := full.Record(a, r, i%3 == 0, "probe")
				errS := sum.Record(a, r, i%3 == 0, "probe")
				if fmt.Sprint(errF) != fmt.Sprint(errS) || Halted(errF) != Halted(errS) {
					t.Fatalf("call %d: full halts with %v, summary with %v", i, errF, errS)
				}
				halted = errF != nil
				// The oracle: the full trace's samples, added in order.
				simMS, cost := 0.0, 0.0
				for _, smp := range full.Samples {
					simMS += smp.E2EMS
					cost += smp.Cost
				}
				for _, tr := range []*Trace{full, sum} {
					if tr.Len() != len(full.Samples) ||
						math.Float64bits(tr.TotalRuntimeMS()) != math.Float64bits(simMS) ||
						math.Float64bits(tr.TotalCost()) != math.Float64bits(cost) {
						t.Fatalf("call %d: trace reads (%d, %v, %v), its samples (%d, %v, %v)", i,
							tr.Len(), tr.TotalRuntimeMS(), tr.TotalCost(), len(full.Samples), simMS, cost)
					}
				}
			}
			if halted != c.wantHalt {
				t.Fatalf("halted = %v, want %v", halted, c.wantHalt)
			}
			if len(sum.Samples) != 0 {
				t.Errorf("summary trace kept %d samples", len(sum.Samples))
			}
		})
	}
}

// TestSummaryTraceStillReportsProgress: a Progress callback on a summary
// trace sees every sample, note and assignment included.
func TestSummaryTraceStillReportsProgress(t *testing.T) {
	var seen []Sample
	tr := NewTrace(context.Background(), "X", Options{SLOMS: 1, Summary: true, Progress: func(s Sample) { seen = append(seen, s) }})
	if !tr.KeepsSamples() {
		t.Fatal("a summary trace with a Progress callback must report its samples")
	}
	a := resources.Assignment{"g1": {CPU: 1, MemMB: 128}}
	tr.Record(a, sampleResult(100, 10), true, "init")
	a["g1"] = resources.Config{CPU: 2, MemMB: 256}
	tr.Record(a, sampleResult(200, 20), false, "probe")
	if len(seen) != 2 || seen[1].Index != 1 || seen[1].Note != "probe" || seen[0].Assignment["g1"].CPU != 1 {
		t.Fatalf("progress saw %+v", seen)
	}
	if tr.Len() != 2 || len(tr.Samples) != 0 {
		t.Fatalf("Len %d, %d samples kept", tr.Len(), len(tr.Samples))
	}
}

// TestResetGivesFreshWeights: a Result reset for a new execution hands
// out that execution's weights, and a copy taken before the reset keeps
// the weights it had already built.
func TestResetGivesFreshWeights(t *testing.T) {
	l := NewLayout([]string{"a", "b"})
	r := NewResult(l)
	r.Nodes[0].RuntimeMS, r.Nodes[1].RuntimeMS = 1, 2
	old := r
	if w := old.NodeWeights(); w["a"] != 1 || w["b"] != 2 {
		t.Fatalf("weights before reset: %v", w)
	}
	r.Reset(l)
	if r.Nodes[0] != (NodeResult{}) || r.E2EMS != 0 {
		t.Fatalf("reset left %+v", r)
	}
	r.Nodes[0].RuntimeMS, r.Nodes[1].RuntimeMS = 5, 6
	if w := r.NodeWeights(); w["a"] != 5 || w["b"] != 6 {
		t.Errorf("weights after reset: %v, want the new execution's", w)
	}
	if w := old.NodeWeights(); w["a"] != 1 || w["b"] != 2 {
		t.Errorf("copy's weights after reset: %v, want the ones it built", w)
	}
}
