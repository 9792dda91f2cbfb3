package workflow_test

import (
	"testing"

	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// TestEvaluateAllocs pins a steady-state Evaluate at exactly two heap
// allocations, the two parts of the Result it hands back: the per-node
// entry slice and the NodeWeights memo. Everything else (the simulation's
// scratch, the per-node containers, the layout) is runner-owned and reused.
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
}
