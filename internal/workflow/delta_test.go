package workflow

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// flatProfile returns a small valid profile for generated specs.
func flatProfile(name string, workMS float64) perfmodel.Profile {
	return perfmodel.Profile{
		Name: name, CPUWorkMS: workMS, ParallelFrac: 0.5, MaxParallel: 4,
		IOMS: 100, FootprintMB: 512, MinMemMB: 256, PressureK: 1, NoiseStd: 0.01,
	}
}

// layeredSpec builds a connected layered-random spec with n nodes for
// tests and benchmarks: node i gets an edge from a random earlier node plus
// up to three extras, and nodes share 257 configuration groups.
func layeredSpec(n int, seed uint64) *Spec {
	rng := rand.New(rand.NewPCG(seed, 0xbe9c))
	g := dag.NewWithCapacity(n)
	profiles := make(map[string]perfmodel.Profile, n)
	groups := make(map[string]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%05d", i)
		g.MustAddNode(id)
		profiles[id] = flatProfile(id, 500+float64(rng.IntN(2000)))
		groups[id] = fmt.Sprintf("g%03d", i%257)
	}
	ids := g.Nodes()
	for i := 1; i < n; i++ {
		g.MustAddEdge(ids[rng.IntN(i)], ids[i])
		for k := 0; k < 3; k++ {
			_ = g.AddEdge(ids[rng.IntN(i)], ids[i]) // ignore duplicates
		}
	}
	spec := &Spec{
		Name:     fmt.Sprintf("layered-%d-%d", n, seed),
		G:        g,
		Profiles: profiles,
		Groups:   groups,
		SLOMS:    1e9,
		Limits:   resources.DefaultLimits(),
	}
	spec.Base = resources.Uniform(spec.FunctionGroups(), resources.Config{CPU: 4, MemMB: 8192})
	return spec
}

func TestSpecCloneIndependent(t *testing.T) {
	spec := layeredSpec(20, 4)
	c := spec.Clone()
	if err := c.Apply(Delta{RemoveNodes: []string{spec.G.Nodes()[10]}}); err != nil {
		t.Fatal(err)
	}
	if spec.G.NumNodes() != 20 || c.G.NumNodes() != 19 {
		t.Fatalf("clone not independent: %d/%d nodes", spec.G.NumNodes(), c.G.NumNodes())
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}
