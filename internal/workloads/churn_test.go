package workloads

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"aarc/internal/workflow"
)

// churnStep applies one random churn primitive to the spec and returns a
// description for failure messages.
func churnStep(t *testing.T, spec *workflow.Spec, rng *rand.Rand) string {
	t.Helper()
	var (
		d    workflow.Delta
		err  error
		kind string
	)
	switch rng.IntN(3) {
	case 0:
		kind = "add"
		d, err = AddRandomNodes(spec, rng, 1+rng.IntN(3))
	case 1:
		kind = "delete"
		d, err = DeleteRandomNodes(spec, rng, 1+rng.IntN(3))
	default:
		kind = "rewire"
		d, err = RewireRandomEdges(spec, rng, 1+rng.IntN(4))
	}
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	if err := spec.Apply(d); err != nil {
		t.Fatalf("%s: apply: %v", kind, err)
	}
	return kind
}

// TestChurnPreservesValidity drives a spec through hundreds of random churn
// steps and asserts the invariants the primitives promise: the spec stays a
// valid (acyclic, connected, fully profiled and base-covered) workflow after
// every step.
func TestChurnPreservesValidity(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		spec, err := Scale(ScaleOptions{Topology: TopologyRandom, Nodes: 120, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 0xc4a2))
		for step := 0; step < 150; step++ {
			kind := churnStep(t, spec, rng)
			if err := spec.Validate(); err != nil {
				t.Fatalf("seed %d step %d (%s): spec invalid: %v", seed, step, kind, err)
			}
		}
	}
}

// TestChurnDeterministic asserts that the same seed drives the same churn
// trajectory: two specs churned with identically seeded rngs stay
// byte-identical in canonical form.
func TestChurnDeterministic(t *testing.T) {
	mk := func() (*workflow.Spec, *rand.Rand) {
		spec, err := Scale(ScaleOptions{Topology: TopologyLayered, Nodes: 150, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return spec, rand.New(rand.NewPCG(77, 0xfeed))
	}
	sa, ra := mk()
	sb, rb := mk()
	for step := 0; step < 80; step++ {
		churnStep(t, sa, ra)
		churnStep(t, sb, rb)
		ba, err := workflow.CanonicalJSON(sa)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := workflow.CanonicalJSON(sb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("step %d: churn trajectories diverged", step)
		}
	}
}

// TestChurnGrowsAndShrinks sanity-checks that the primitives actually edit
// the graph (a silent no-op churn stream would make every churn test
// vacuous).
func TestChurnGrowsAndShrinks(t *testing.T) {
	spec, err := Scale(ScaleOptions{Topology: TopologyDiamond, Nodes: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 0x90))
	d, err := AddRandomNodes(spec, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.AddNodes) == 0 {
		t.Fatal("AddRandomNodes produced no nodes")
	}
	if err := spec.Apply(d); err != nil {
		t.Fatal(err)
	}
	if spec.G.NumNodes() != 100+len(d.AddNodes) {
		t.Fatalf("node count %d after adding %d", spec.G.NumNodes(), len(d.AddNodes))
	}
	d, err = DeleteRandomNodes(spec, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RemoveNodes) == 0 {
		t.Fatal("DeleteRandomNodes selected no victims")
	}
	before := spec.G.NumNodes()
	if err := spec.Apply(d); err != nil {
		t.Fatal(err)
	}
	if spec.G.NumNodes() != before-len(d.RemoveNodes) {
		t.Fatalf("node count %d after removing %d from %d", spec.G.NumNodes(), len(d.RemoveNodes), before)
	}
	d, err = RewireRandomEdges(spec, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.RemoveEdges) == 0 || len(d.RemoveEdges) != len(d.AddEdges) {
		t.Fatalf("rewire emitted %d removals, %d additions", len(d.RemoveEdges), len(d.AddEdges))
	}
	if err := spec.Apply(d); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func ExampleScale() {
	spec, _ := Scale(ScaleOptions{Topology: TopologyDiamond, Nodes: 12, Seed: 1})
	fmt.Println(spec.Name, spec.G.NumNodes())
	// Output: scale-diamond-12-1 12
}
