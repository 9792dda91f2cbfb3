package workloads

import (
	"fmt"
	"math"
	"math/rand/v2"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
	"aarc/internal/workflow"
)

// Topology names a scale-regime DAG family.
type Topology string

// The five generated topology families. They stress different parts of the
// scheduler: fanout maximizes the concurrent running set (host contention),
// chain maximizes critical-path length, diamond alternates scatter/join
// barriers, layered approximates real multi-stage pipelines, and random
// produces irregular heavy-cross-edge DAGs.
const (
	TopologyLayered Topology = "layered"
	TopologyFanout  Topology = "fanout"
	TopologyChain   Topology = "chain"
	TopologyDiamond Topology = "diamond"
	TopologyRandom  Topology = "random"
)

// Topologies lists every scale topology family in a stable order.
func Topologies() []Topology {
	return []Topology{TopologyLayered, TopologyFanout, TopologyChain, TopologyDiamond, TopologyRandom}
}

// ScaleOptions parameterizes the scale-regime workload generator, which
// extends the layered Synthetic generator to the 10k-node regime.
type ScaleOptions struct {
	// Topology selects the DAG family.
	Topology Topology
	// Nodes is the exact node count (≥3).
	Nodes int
	// Seed drives every topology and profile draw; equal options generate
	// byte-identical specs (CanonicalJSON) on every run.
	Seed uint64
	// Degree controls extra-edge density for the layered and random
	// families and the scatter width of diamond stages (default 3).
	Degree int
	// HeavyTail switches per-function work multipliers from uniform
	// [0.5, 2) to a capped Pareto draw, giving the straggler-dominated
	// runtime distributions observed in production traces.
	HeavyTail bool
	// SLOFactor sets the SLO as a multiple of the base-configuration
	// critical-path runtime (default 2.0; must exceed 1).
	SLOFactor float64
}

// drawScale returns the per-function work multiplier.
func drawScale(rng *rand.Rand, heavy bool) float64 {
	if !heavy {
		return 0.5 + rng.Float64()*1.5
	}
	// Pareto with x_m = 0.5, alpha = 1.2, capped so a single straggler
	// cannot fully dominate the critical path.
	u := rng.Float64()
	if u < 1e-9 {
		u = 1e-9
	}
	s := 0.5 / math.Pow(u, 1/1.2)
	return math.Min(s, 25)
}

// scaleProfile draws one function profile (same archetype mix as the
// Synthetic generator, lighter absolute work so 10k-node evaluations stay
// fast).
func scaleProfile(rng *rand.Rand, name string, heavy bool) perfmodel.Profile {
	base := perfmodel.Profile{Name: name, NoiseStd: defaultNoise, PressureK: 1.5}
	scale := drawScale(rng, heavy)
	switch rng.IntN(4) {
	case 0: // compute-bound
		base.CPUWorkMS = 4000 * scale
		base.ParallelFrac = 0.8
		base.MaxParallel = 8
		base.IOMS = 200
		base.FootprintMB = 512
		base.MinMemMB = 256
	case 1: // memory-bound
		base.CPUWorkMS = 2500 * scale
		base.ParallelFrac = 0.6
		base.MaxParallel = 8
		base.IOMS = 300
		base.FootprintMB = 2048
		base.MinMemMB = 1024
		base.PressureK = 2
	case 2: // I/O-bound
		base.CPUWorkMS = 500 * scale
		base.ParallelFrac = 0.2
		base.MaxParallel = 2
		base.IOMS = 1500 * scale
		base.FootprintMB = 512
		base.MinMemMB = 256
	default: // balanced
		base.CPUWorkMS = 1500 * scale
		base.ParallelFrac = 0.5
		base.MaxParallel = 4
		base.IOMS = 500
		base.FootprintMB = 1024
		base.MinMemMB = 512
	}
	return base
}

// Scale generates a workflow of the requested family and exact node count.
// All draws come from one seeded PCG stream over deterministic iteration
// orders, so the same options produce byte-identical canonical specs across
// runs, processes and goroutines.
func Scale(opts ScaleOptions) (*workflow.Spec, error) {
	if opts.Nodes < 3 {
		return nil, fmt.Errorf("workloads: Scale needs >=3 nodes, got %d", opts.Nodes)
	}
	if opts.Degree <= 0 {
		opts.Degree = 3
	}
	if opts.SLOFactor == 0 {
		opts.SLOFactor = 2
	}
	if opts.SLOFactor <= 1 {
		return nil, fmt.Errorf("workloads: SLOFactor must exceed 1, got %v", opts.SLOFactor)
	}
	rng := rand.New(rand.NewPCG(opts.Seed, 0x5ca1e))
	n := opts.Nodes
	g := dag.NewWithCapacity(n)
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprintf("n%06d", i))
	}
	ids := g.Nodes()

	switch opts.Topology {
	case TopologyChain:
		for i := 1; i < n; i++ {
			g.MustAddEdge(ids[i-1], ids[i])
		}
	case TopologyFanout:
		// One wide scatter: start → n-2 workers → end.
		for i := 1; i < n-1; i++ {
			g.MustAddEdge(ids[0], ids[i])
			g.MustAddEdge(ids[i], ids[n-1])
		}
	case TopologyDiamond:
		// Alternating scatter/join lattice: join_k → width parallel → join_k+1.
		maxW := 2 + opts.Degree*2
		join := 0 // index of the current join node
		next := 1
		for next < n {
			remaining := n - next
			if remaining == 1 {
				g.MustAddEdge(ids[join], ids[next])
				next++
				continue
			}
			width := 1 + rng.IntN(maxW)
			if width > remaining-1 {
				width = remaining - 1
			}
			newJoin := next + width
			for i := next; i < newJoin; i++ {
				g.MustAddEdge(ids[join], ids[i])
				g.MustAddEdge(ids[i], ids[newJoin])
			}
			join = newJoin
			next = newJoin + 1
		}
	case TopologyLayered:
		// Random-width layers around sqrt(n), each node wired to the
		// previous layer plus occasional long-range edges.
		w := int(math.Sqrt(float64(n)))
		if w < 1 {
			w = 1
		}
		prev := []int{0}
		next := 1
		for next < n {
			width := 1 + rng.IntN(2*w)
			if width > n-next {
				width = n - next
			}
			cur := make([]int, 0, width)
			for i := next; i < next+width; i++ {
				g.MustAddEdge(ids[prev[rng.IntN(len(prev))]], ids[i])
				for k := 0; k < opts.Degree; k++ {
					_ = g.AddEdge(ids[prev[rng.IntN(len(prev))]], ids[i]) // dups ignored
				}
				if next > 1 && rng.Float64() < 0.05 {
					_ = g.AddEdge(ids[rng.IntN(next)], ids[i]) // long-range, dups ignored
				}
				cur = append(cur, i)
			}
			prev = cur
			next += width
		}
	case TopologyRandom:
		// Every node claims a guaranteed earlier predecessor (keeping one
		// component) plus Degree extra random back-edges.
		for i := 1; i < n; i++ {
			g.MustAddEdge(ids[rng.IntN(i)], ids[i])
			for k := 0; k < opts.Degree; k++ {
				_ = g.AddEdge(ids[rng.IntN(i)], ids[i]) // dups ignored
			}
		}
	default:
		return nil, fmt.Errorf("workloads: unknown topology %q", opts.Topology)
	}

	profiles := make(map[string]perfmodel.Profile, n)
	for _, id := range ids {
		profiles[id] = scaleProfile(rng, id, opts.HeavyTail)
	}
	// Group scatter siblings onto shared configurations: bounded group count
	// keeps the per-group search tractable at 10k nodes.
	numGroups := n / 8
	if numGroups < 1 {
		numGroups = 1
	}
	if numGroups > 256 {
		numGroups = 256
	}
	groups := make(map[string]string, n)
	for i, id := range ids {
		groups[id] = fmt.Sprintf("g%04d", i%numGroups)
	}

	spec := &workflow.Spec{
		Name:     fmt.Sprintf("scale-%s-%d-%d", opts.Topology, opts.Nodes, opts.Seed),
		G:        g,
		Profiles: profiles,
		Groups:   groups,
		SLOMS:    1, // placeholder until computed below
		Limits:   resources.DefaultLimits(),
	}
	base := resources.Config{CPU: 4, MemMB: 8192}
	spec.Base = resources.Uniform(spec.FunctionGroups(), base)

	// SLO: SLOFactor × the base critical-path runtime (analytic), with cold
	// start head-room.
	weights := make(map[string]float64, n)
	for _, id := range ids {
		prof := profiles[id]
		t, err := prof.MeanRuntime(base, 1)
		if err != nil {
			return nil, err
		}
		weights[id] = t
	}
	_, cpWeight, err := dag.CriticalPath(g, weights)
	if err != nil {
		return nil, err
	}
	spec.SLOMS = opts.SLOFactor*cpWeight + 5_000

	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}
