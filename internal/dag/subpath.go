package dag

import (
	"cmp"
	"context"
	"fmt"
	"slices"
)

// Subpath is a detour branch that leaves the critical path at Start and
// rejoins it at End. Nodes contains the full sequence including both
// anchors, matching the pseudocode of Algorithm 1, where already-scheduled
// nodes (at minimum the two anchors) are popped and their runtime subtracted
// from the sub-SLO window.
type Subpath struct {
	Start string
	End   string
	Nodes []string
}

// Interior returns the off-critical nodes of the subpath (everything except
// the two anchors).
func (s Subpath) Interior() []string {
	if len(s.Nodes) <= 2 {
		return nil
	}
	return append([]string(nil), s.Nodes[1:len(s.Nodes)-1]...)
}

// String renders the subpath as "A -> x -> y -> B".
func (s Subpath) String() string {
	out := ""
	for i, id := range s.Nodes {
		if i > 0 {
			out += " -> "
		}
		out += id
	}
	return out
}

// ctxCheckEvery is how many DFS steps the detour listing takes between
// two looks at its context.
const ctxCheckEvery = 4096

// FindDetourSubpaths enumerates the paper's find_detour_subpath(G, L): all
// simple paths that depart from a critical-path node, traverse only
// off-critical interior nodes, and rejoin the critical path downstream.
//
// The result is ordered for the scheduler: descending interior weight (the
// heaviest, most SLO-threatening branch first), then by the anchors'
// position on the critical path, then in discovery order. Overlapping
// branches that share interior nodes each appear; Algorithm 1's scheduled
// flags make the overlap safe (a function is only ever configured once).
//
// A non-nil want filters the listing: only subpaths whose interior holds a
// node want accepts are kept, in the same relative order. The DFS then
// descends only where such a subpath can still be completed, which one
// reverse-topological pass decides before it starts. want is called once
// per off-critical node.
//
// The number of subpaths can grow exponentially with the graph, so the
// DFS, and the copy of the kept subpaths out of it, check ctx every few
// thousand steps and return ctx.Err() once it is done; what cannot stop
// midway is one sort of the kept subpaths' keys and the allocation of
// their result. A cyclic graph is an ErrCycle, an empty one ErrEmpty.
func FindDetourSubpaths(ctx context.Context, g *Graph, critical []string, weights map[string]float64, want func(id string) bool) ([]Subpath, error) {
	n := len(g.order)
	cpIndex := make([]int32, n) // position on the critical path; -1 off it
	for i := range cpIndex {
		cpIndex[i] = -1
	}
	anchors := make([]int32, len(critical))
	for k, id := range critical {
		i, ok := g.index[id]
		if !ok {
			return nil, fmt.Errorf("%w: critical node %q", ErrUnknownNode, id)
		}
		if cpIndex[i] >= 0 {
			return nil, fmt.Errorf("dag: critical path repeats node %q", id)
		}
		cpIndex[i] = int32(k)
		anchors[k] = int32(i)
	}
	topo, err := g.topoIndex()
	if err != nil {
		return nil, err
	}

	// One reverse-topological pass over the off-critical nodes: rejoins[i]
	// when an off-critical path leads from i back to the critical path;
	// useful[i] when such a path from i holds a wanted node (i included).
	// Every path in a DAG is simple, and from an anchor any rejoin is
	// downstream of it, so a trail can be completed exactly when its last
	// node rejoins (useful, while the trail holds no wanted node yet).
	w := make([]float64, n)
	wanted := make([]bool, n)
	rejoins := make([]bool, n)
	useful := make([]bool, n)
	for k := n - 1; k >= 0; k-- {
		i := topo[k]
		if cpIndex[i] >= 0 {
			continue
		}
		w[i] = weights[g.order[i]]
		wanted[i] = want == nil || want(g.order[i])
		for _, s := range g.succ[i] {
			if cpIndex[s] >= 0 {
				rejoins[i] = true
			} else {
				rejoins[i] = rejoins[i] || rejoins[s]
				useful[i] = useful[i] || useful[s]
			}
		}
		useful[i] = useful[i] || (wanted[i] && rejoins[i])
	}

	// Each subpath's sort key is computed once, when it is found: its
	// interior weight (PathWeight's left-to-right sum over the trail), its
	// anchors' critical-path indices and its discovery order. Its interior
	// is a span of trails.
	type keyed struct {
		weight     float64
		start, end int32
		seq        int32
		off, len   int32 // interior: trails[off : off+len]
	}
	var (
		found   []keyed
		trails  []int32
		trail   []int32
		holding int // wanted nodes on the trail
		steps   int
	)
	var walk func(anchor, node int32) error
	walk = func(anchor, node int32) error {
		if steps++; steps%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for _, next := range g.succ[node] {
			if c := cpIndex[next]; c >= 0 {
				// Rejoined the critical path: emit anchor..trail..next. Only
				// forward rejoins are valid; on a DAG whose critical list is
				// a path, no other can occur. A direct edge to the anchor's
				// immediate critical successor is the critical path itself,
				// not a detour; direct edges that skip ahead ("bypass"
				// edges) are real detours with an empty interior, which
				// holds no wanted node.
				if c <= cpIndex[anchor] || len(trail) == 0 && c == cpIndex[anchor]+1 {
					continue
				}
				if want != nil && holding == 0 {
					continue
				}
				sum := 0.0
				for _, t := range trail {
					sum += w[t]
				}
				found = append(found, keyed{
					weight: sum, start: cpIndex[anchor], end: c, seq: int32(len(found)),
					off: int32(len(trails)), len: int32(len(trail)),
				})
				trails = append(trails, trail...)
				continue
			}
			if holding > 0 && !rejoins[next] || holding == 0 && !useful[next] {
				continue
			}
			trail = append(trail, next)
			if wanted[next] {
				holding++
			}
			if err := walk(anchor, next); err != nil {
				return err
			}
			if wanted[next] {
				holding--
			}
			trail = trail[:len(trail)-1]
		}
		return nil
	}
	for _, a := range anchors {
		if err := walk(a, a); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Discovery order breaks the remaining ties, so this is the stable
	// sort on the first three keys, at pdqsort's cost.
	slices.SortFunc(found, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(b.weight, a.weight), cmp.Compare(a.start, b.start), cmp.Compare(a.end, b.end), cmp.Compare(a.seq, b.seq))
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Every subpath's nodes share one backing array, each capped at its
	// own end so that no append through one reaches the next.
	arena := make([]string, 0, len(trails)+2*len(found))
	out := make([]Subpath, len(found))
	for k, f := range found {
		if k%ctxCheckEvery == ctxCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		from := len(arena)
		arena = append(arena, critical[f.start])
		for _, t := range trails[f.off : f.off+f.len] {
			arena = append(arena, g.order[t])
		}
		arena = append(arena, critical[f.end])
		out[k] = Subpath{Start: critical[f.start], End: critical[f.end], Nodes: arena[from:len(arena):len(arena)]}
	}
	return out, nil
}
