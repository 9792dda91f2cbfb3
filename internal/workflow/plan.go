package workflow

import (
	"sort"

	"aarc/internal/perfmodel"
	"aarc/internal/resources"
	"aarc/internal/search"
)

// plan is the compiled, int-indexed execution form of a Spec. NewRunner
// builds it once; every Evaluate then walks dense slices instead of
// re-deriving topo order and re-hashing string node IDs. Dense node IDs are
// topological indices, so iterating 0..n-1 is already a valid schedule order
// and the ready queue can order nodes by comparing ints.
//
// The plan is immutable after compile and may be shared by reads; all
// per-evaluation mutable state lives in the runner's scratch arena.
type plan struct {
	ids      []string            // dense node ID -> spec node ID, topo order
	layout   *search.Layout      // names ids for the Results the runner returns
	groups   []string            // dense node ID -> group name
	groupIdx []int32             // dense node ID -> dense group index
	profiles []perfmodel.Profile // dense node ID -> performance profile
	succs    [][]int32           // dense node ID -> successor dense IDs
	indeg0   []int32             // dense node ID -> predecessor count

	groupNames []string // dense group index -> name (sorted, = FunctionGroups)
	groupNode  []string // dense group index -> one member node, for error text
}

// compilePlan flattens a validated spec into the dense execution plan.
func compilePlan(spec *Spec) (*plan, error) {
	topo, succs, err := spec.G.TopoSucc()
	if err != nil {
		return nil, err
	}
	n := len(topo)
	layout := search.NewLayout(topo)

	groupNames := spec.FunctionGroups()
	gidx := make(map[string]int32, len(groupNames))
	for i, g := range groupNames {
		gidx[g] = int32(i)
	}

	p := &plan{
		ids:        topo,
		layout:     layout,
		groups:     make([]string, n),
		groupIdx:   make([]int32, n),
		profiles:   make([]perfmodel.Profile, n),
		succs:      succs,
		indeg0:     make([]int32, n),
		groupNames: groupNames,
		groupNode:  make([]string, len(groupNames)),
	}
	for k, id := range topo {
		gr := spec.GroupOf(id)
		p.groups[k] = gr
		p.groupIdx[k] = gidx[gr]
		if p.groupNode[gidx[gr]] == "" {
			p.groupNode[gidx[gr]] = id
		}
		p.profiles[k] = spec.Profiles[id]
		p.indeg0[k] = int32(spec.G.InDegree(id))
	}
	return p, nil
}

// Node execution states tracked in the scratch arena.
const (
	stNotStarted uint8 = iota
	stRunning
	stFinished
	stSkipped
)

// runItem is one running invocation in the event heap. deadline is on the
// virtual-work clock (see evaluate), so it is assigned once at start and
// never rewritten — the heap needs no rescans when the running set changes.
type runItem struct {
	deadline float64
	node     int32
}

// runHeap is a binary min-heap of running invocations ordered by deadline,
// ties broken by topological index so batches finish in deterministic order.
// It is hand-rolled over a reusable slice (container/heap would box every
// element through the interface).
type runHeap []runItem

func (h runHeap) less(i, j int) bool {
	return h[i].deadline < h[j].deadline ||
		(h[i].deadline == h[j].deadline && h[i].node < h[j].node)
}

func (h *runHeap) push(it runItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *runHeap) pop() runItem {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(q) && q.less(l, m) {
			m = l
		}
		if r < len(q) && q.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

// scratch is the reusable per-runner arena: every slice is sized to the plan
// on first use and only reset (never reallocated) on subsequent evaluations,
// so a steady-state Evaluate allocates only the Result it hands back to the
// caller. The arena is what makes a Runner unsafe for concurrent use.
type scratch struct {
	indeg []int32 // remaining predecessor count per node
	state []uint8 // execution state per node
	ready []int32 // ready nodes, ascending topo index
	heap  runHeap
	cfgs  []resources.Config // resolved config per dense group index
}

func (s *scratch) reset(p *plan) {
	n := len(p.ids)
	if cap(s.indeg) < n {
		s.indeg = make([]int32, n)
		s.state = make([]uint8, n)
	}
	s.indeg = s.indeg[:n]
	copy(s.indeg, p.indeg0)
	s.state = s.state[:n]
	clear(s.state)
	s.ready = s.ready[:0]
	s.heap = s.heap[:0]
	s.cfgs = s.cfgs[:0]
}

// pushReady inserts node n keeping the queue sorted by topo index, so nodes
// released by the same event start in the same deterministic order the
// string-keyed implementation used.
func pushReady(q []int32, n int32) []int32 {
	i := sort.Search(len(q), func(i int) bool { return q[i] > n })
	q = append(q, 0)
	copy(q[i+1:], q[i:])
	q[i] = n
	return q
}
