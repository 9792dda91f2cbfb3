package workflow_test

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// TestEvaluateAllocs pins a steady-state Evaluate at exactly two heap
// allocations, the two parts of the Result it hands back: the per-node
// entry slice and the NodeWeights memo. Everything else (the simulation's
// scratch, the per-node containers, the layout) is runner-owned and reused.
// EvaluateInto on a reused Result keeps its entry slice, so at most the
// fresh memo is left.
func TestEvaluateAllocs(t *testing.T) {
	spec, err := workloads.Scale(workloads.ScaleOptions{Topology: workloads.TopologyLayered, Nodes: 64, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r, err := workflow.NewRunner(spec, workflow.RunnerOptions{HostCores: 96, Noise: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := r.Base()
	if _, err := r.Evaluate(a); err != nil { // size the scratch, warm the containers
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Evaluate(a); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("Evaluate allocates %v times per call, want 2 (node slice and weights memo)", allocs)
	}

	var res search.Result
	if err := r.EvaluateInto(a, &res); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := r.EvaluateInto(a, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("EvaluateInto on a reused result allocates %v times per call, want at most 1 (weights memo)", allocs)
	}
}

// TestEvaluateIntoMatchesEvaluate runs one assignment sequence on two
// runners built alike, one through Evaluate and one through EvaluateInto
// on two alternating reused Results, and requires every execution to
// agree entry for entry, weights included. The sequence shrinks random
// groups down to the memory floor, so OOM kills and skipped nodes occur.
func TestEvaluateIntoMatchesEvaluate(t *testing.T) {
	spec, err := workloads.Scale(workloads.ScaleOptions{Topology: workloads.TopologyDiamond, Nodes: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := workflow.RunnerOptions{HostCores: 96, Noise: true, Seed: 9}
	fresh, err := workflow.NewRunner(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := workflow.NewRunner(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	groups := spec.FunctionGroups()
	lim := spec.Limits
	a := fresh.Base()
	var bufs [2]search.Result
	ooms := 0
	for i := 0; i < 200; i++ {
		g := groups[rng.IntN(len(groups))]
		a[g] = lim.Snap(resources.Config{CPU: a[g].CPU * (0.5 + rng.Float64()), MemMB: a[g].MemMB * (0.3 + rng.Float64())})
		want, err := fresh.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		got := &bufs[i%2]
		if err := reused.EvaluateInto(a, got); err != nil {
			t.Fatal(err)
		}
		if got.E2EMS != want.E2EMS || got.Cost != want.Cost || got.OOM != want.OOM || got.Fail != want.Fail ||
			!slices.Equal(got.Nodes, want.Nodes) || !maps.Equal(got.NodeWeights(), want.NodeWeights()) {
			t.Fatalf("run %d: EvaluateInto %+v, Evaluate %+v", i, *got, want)
		}
		if want.OOM {
			ooms++
			a = fresh.Base()
		}
	}
	if ooms == 0 {
		t.Fatal("the sequence never hit an OOM kill")
	}
}
