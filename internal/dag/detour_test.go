package dag_test

import (
	"cmp"
	"context"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"aarc/internal/dag"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// oracleDetours is the detour listing as it was before the index DFS and
// the filter: a string-keyed DFS over every simple off-critical path, each
// subpath keyed by dag.PathWeight of its interior and its anchors'
// critical-path positions, stable-sorted by weight descending, then start,
// then end. It shares no code with FindDetourSubpaths.
func oracleDetours(g *dag.Graph, critical []string, weights map[string]float64) []dag.Subpath {
	cpIndex := make(map[string]int, len(critical))
	for i, id := range critical {
		cpIndex[id] = i
	}
	type keyed struct {
		weight     float64
		start, end int
		sp         dag.Subpath
	}
	var found []keyed
	var walk func(anchor, node string, trail []string)
	walk = func(anchor, node string, trail []string) {
		for _, next := range g.Succ(node) {
			if c, on := cpIndex[next]; on {
				direct := len(trail) == 0 && c == cpIndex[anchor]+1
				if c > cpIndex[anchor] && !direct {
					nodes := append(append([]string{anchor}, trail...), next)
					found = append(found, keyed{
						weight: dag.PathWeight(trail, weights),
						start:  cpIndex[anchor], end: c,
						sp: dag.Subpath{Start: anchor, End: next, Nodes: nodes},
					})
				}
				continue
			}
			if slices.Contains(trail, next) {
				continue
			}
			walk(anchor, next, append(slices.Clip(trail), next))
		}
	}
	for _, anchor := range critical {
		walk(anchor, anchor, nil)
	}
	slices.SortStableFunc(found, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(b.weight, a.weight), a.start-b.start, a.end-b.end)
	})
	out := make([]dag.Subpath, len(found))
	for i := range found {
		out[i] = found[i].sp
	}
	return out
}

// keep is the oracle's listing with every subpath whose interior holds no
// wanted node removed, in the same order.
func keep(all []dag.Subpath, want func(string) bool) []dag.Subpath {
	var out []dag.Subpath
	for _, sp := range all {
		if slices.ContainsFunc(sp.Interior(), want) {
			out = append(out, sp)
		}
	}
	return out
}

func sameSubpaths(a, b []dag.Subpath) bool {
	return slices.EqualFunc(a, b, func(x, y dag.Subpath) bool {
		return x.Start == y.Start && x.End == y.End && slices.Equal(x.Nodes, y.Nodes)
	})
}

// TestDetourFilterMatchesOracle checks the listing against the oracle on
// every Scale family from 8 to 80 nodes, seeds 1 to 4, and on the three
// paper workloads, weighted by a base-configuration run as AARC weights
// them: unfiltered it is the oracle's listing, and under a filter it is
// that listing with the subpaths whose interior holds no wanted node
// removed. The filters are the one AARC passes once the critical path is
// configured (a node whose group no critical node shares) and random node
// subsets.
func TestDetourFilterMatchesOracle(t *testing.T) {
	type tc struct {
		name string
		spec *workflow.Spec
		seed uint64
	}
	var cases []tc
	for _, topo := range workloads.Topologies() {
		for _, nodes := range []int{8, 16, 32, 48, 64, 80} {
			for seed := uint64(1); seed <= 4; seed++ {
				spec, err := workloads.Scale(workloads.ScaleOptions{Topology: topo, Nodes: nodes, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, tc{fmt.Sprintf("%s/%d/%d", topo, nodes, seed), spec, seed})
			}
		}
	}
	for _, spec := range workloads.All() {
		cases = append(cases, tc{spec.Name, spec, 1})
	}
	ctx := context.Background()
	var listed, kept int
	for _, c := range cases {
		r, err := workflow.NewRunner(c.spec, workflow.RunnerOptions{HostCores: 96, Noise: true, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Evaluate(r.Base())
		if err != nil {
			t.Fatal(err)
		}
		w := res.NodeWeights()
		g := c.spec.G
		critical, _, err := dag.CriticalPath(g, w)
		if err != nil {
			t.Fatal(err)
		}
		all := oracleDetours(g, critical, w)
		got, err := dag.FindDetourSubpaths(ctx, g, critical, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSubpaths(got, all) {
			t.Fatalf("%s: unfiltered listing differs from the oracle: %d vs %d subpaths", c.name, len(got), len(all))
		}

		scheduled := map[string]bool{}
		for _, id := range critical {
			scheduled[c.spec.GroupOf(id)] = true
		}
		filters := map[string]func(string) bool{
			"unscheduled": func(id string) bool { return !scheduled[c.spec.GroupOf(id)] },
		}
		rng := rand.New(rand.NewPCG(c.seed, uint64(g.NumNodes())))
		for _, p := range []float64{0.05, 0.3} {
			subset := map[string]bool{}
			for _, id := range g.Nodes() {
				if rng.Float64() < p {
					subset[id] = true
				}
			}
			filters[fmt.Sprintf("subset%.2f", p)] = func(id string) bool { return subset[id] }
		}
		for name, want := range filters {
			got, err := dag.FindDetourSubpaths(ctx, g, critical, w, want)
			if err != nil {
				t.Fatal(err)
			}
			if exp := keep(all, want); !sameSubpaths(got, exp) {
				t.Fatalf("%s %s: filtered listing differs from the oracle's: %d vs %d subpaths", c.name, name, len(got), len(exp))
			}
			listed += len(all)
			kept += len(got)
		}
	}
	if kept == 0 || kept == listed {
		t.Fatalf("filters kept %d of %d subpaths: the cases exercise no filtering", kept, listed)
	}
}

// TestDetourListingCancelled checks that a listing under a cancelled
// context returns the context's error.
func TestDetourListingCancelled(t *testing.T) {
	spec, err := workloads.Scale(workloads.ScaleOptions{Topology: workloads.TopologyLayered, Nodes: 112, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := workflow.NewRunner(spec, workflow.RunnerOptions{HostCores: 96, Noise: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Evaluate(r.Base())
	if err != nil {
		t.Fatal(err)
	}
	w := res.NodeWeights()
	critical, _, err := dag.CriticalPath(spec.G, w)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dag.FindDetourSubpaths(ctx, spec.G, critical, w, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
