package dag

import (
	"cmp"
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

// FindDetourSubpaths enumerates the paper's find_detour_subpath(G, L): all
// simple paths that depart from a critical-path node, traverse only
// off-critical interior nodes, and rejoin the critical path downstream.
//
// The result is ordered for the scheduler: descending interior weight (the
// heaviest, most SLO-threatening branch first), then by the anchors'
// position on the critical path, then in discovery order. Overlapping
// branches that share interior nodes each appear; Algorithm 1's scheduled
// flags make the overlap safe (a function is only ever configured once).
func FindDetourSubpaths(g *Graph, critical []string, weights map[string]float64) ([]Subpath, error) {
	onCP := make(map[string]bool, len(critical))
	cpIndex := make(map[string]int, len(critical))
	for i, id := range critical {
		if !g.HasNode(id) {
			return nil, fmt.Errorf("%w: critical node %q", ErrUnknownNode, id)
		}
		if onCP[id] {
			return nil, fmt.Errorf("dag: critical path repeats node %q", id)
		}
		onCP[id] = true
		cpIndex[id] = i
	}

	// Each subpath's sort key is computed once, when it is found: its
	// interior weight (PathWeight over the trail, the interior in order)
	// and its anchors' critical-path indices.
	type keyed struct {
		weight     float64
		start, end int
		sp         Subpath
	}
	var found []keyed
	var walk func(anchor string, node string, trail []string)
	walk = func(anchor, node string, trail []string) {
		for _, next := range g.succ[node] {
			if onCP[next] {
				// Rejoined the critical path: emit anchor..trail..next.
				// Only forward rejoins are valid in a DAG workflow; a rejoin
				// at or before the anchor would contradict acyclicity given
				// the anchor precedes the detour, but guard anyway. A direct
				// edge to the anchor's immediate critical successor is the
				// critical path itself, not a detour; direct edges that skip
				// ahead ("bypass" edges) are real detours with an empty
				// interior.
				directCPEdge := len(trail) == 0 && cpIndex[next] == cpIndex[anchor]+1
				if cpIndex[next] > cpIndex[anchor] && !directCPEdge {
					nodes := make([]string, 0, len(trail)+2)
					nodes = append(nodes, anchor)
					nodes = append(nodes, trail...)
					nodes = append(nodes, next)
					found = append(found, keyed{
						weight: PathWeight(trail, weights),
						start:  cpIndex[anchor],
						end:    cpIndex[next],
						sp:     Subpath{Start: anchor, End: next, Nodes: nodes},
					})
				}
				continue
			}
			// Stay off-critical; simple-path check against the trail.
			seen := false
			for _, t := range trail {
				if t == next {
					seen = true
					break
				}
			}
			if seen {
				continue
			}
			walk(anchor, next, append(trail, next))
		}
	}
	for _, anchor := range critical {
		walk(anchor, anchor, nil)
	}

	slices.SortStableFunc(found, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(b.weight, a.weight), a.start-b.start, a.end-b.end)
	})
	out := make([]Subpath, len(found))
	for i := range found {
		out[i] = found[i].sp
	}
	return out, nil
}

// OffPathNodes returns the nodes of g that are not on the given path, in
// insertion order. Useful for asserting full scheduling coverage.
func OffPathNodes(g *Graph, path []string) []string {
	on := make(map[string]bool, len(path))
	for _, id := range path {
		on[id] = true
	}
	var out []string
	for _, id := range g.Nodes() {
		if !on[id] {
			out = append(out, id)
		}
	}
	return out
}
