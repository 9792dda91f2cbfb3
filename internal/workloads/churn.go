package workloads

import (
	"fmt"
	"math/rand/v2"

	"aarc/internal/resources"
	"aarc/internal/workflow"
)

// Churn primitives: random in-place topology edits expressed as
// workflow.Delta values. Each primitive only adds edges between nodes that
// were already connected by a directed path in the pre-delta graph (or to a
// freshly inserted node), so the emitted deltas keep the DAG acyclic, and
// removals bridge every predecessor to every successor, so the workflow
// stays one connected component with a source and a sink. Callers replay a
// delta with Spec.Apply; the edited spec has a new fingerprint and is
// compiled and searched afresh.

func hasEdge(s *workflow.Spec, u, v string) bool {
	for _, x := range s.G.Succ(u) {
		if x == v {
			return true
		}
	}
	return false
}

// freshID draws an unused node name from the rng stream; used tracks names
// claimed earlier in the same delta.
func freshID(s *workflow.Spec, rng *rand.Rand, used map[string]bool) string {
	for {
		id := fmt.Sprintf("x%08x", rng.Uint64()&0xffffffff)
		if !s.G.HasNode(id) && !used[id] {
			used[id] = true
			return id
		}
	}
}

// AddRandomNodes emits a Delta inserting up to n new nodes, each spliced
// between the endpoints of an existing edge u → v (edges u→x and x→v are
// added; the original edge is kept as a parallel path, which can never close
// a cycle). The new node copies the upstream neighbor's profile with a
// jittered compute demand, forms its own configuration group, and inherits
// the neighbor group's base config. Fewer than n insertions result when the
// rng fails to find eligible edges.
func AddRandomNodes(spec *workflow.Spec, rng *rand.Rand, n int) (workflow.Delta, error) {
	if spec == nil || spec.G == nil {
		return workflow.Delta{}, fmt.Errorf("workloads: AddRandomNodes: nil spec")
	}
	var d workflow.Delta
	ids := spec.G.Nodes()
	used := make(map[string]bool, n)
	for k := 0; k < n; k++ {
		var u, v string
		for attempt := 0; attempt < 32; attempt++ {
			c := ids[rng.IntN(len(ids))]
			if ss := spec.G.Succ(c); len(ss) > 0 {
				u, v = c, ss[rng.IntN(len(ss))]
				break
			}
		}
		if u == "" {
			continue
		}
		id := freshID(spec, rng, used)
		prof := spec.Profiles[u]
		prof.Name = id
		prof.CPUWorkMS *= 0.8 + 0.4*rng.Float64()
		d.AddNodes = append(d.AddNodes, workflow.NodeAdd{ID: id, Profile: prof})
		d.AddEdges = append(d.AddEdges,
			workflow.Edge{From: u, To: id},
			workflow.Edge{From: id, To: v})
		if d.Base == nil {
			d.Base = make(resources.Assignment, n)
		}
		d.Base[id] = spec.Base[spec.GroupOf(u)]
	}
	return d, nil
}

// DeleteRandomNodes emits a Delta removing up to n interior nodes (nodes
// with at least one predecessor and one successor). For every removed node
// w, each predecessor is bridged to each successor with a direct edge unless
// one already exists — the bridge parallels the old p→w→s path, so it cannot
// close a cycle, and it preserves connectivity and every other node's
// source/sink status. Nodes adjacent to an already-selected victim are
// skipped so bridges never reference removed nodes.
func DeleteRandomNodes(spec *workflow.Spec, rng *rand.Rand, n int) (workflow.Delta, error) {
	if spec == nil || spec.G == nil {
		return workflow.Delta{}, fmt.Errorf("workloads: DeleteRandomNodes: nil spec")
	}
	var d workflow.Delta
	ids := spec.G.Nodes()
	excluded := make(map[string]bool) // victims and their neighbors
	added := make(map[workflow.Edge]bool)
	for k := 0; k < n; k++ {
		var w string
		for attempt := 0; attempt < 64; attempt++ {
			c := ids[rng.IntN(len(ids))]
			if excluded[c] || spec.G.InDegree(c) == 0 || spec.G.OutDegree(c) == 0 {
				continue
			}
			w = c
			break
		}
		if w == "" {
			continue
		}
		preds, succs := spec.G.Pred(w), spec.G.Succ(w)
		excluded[w] = true
		for _, p := range preds {
			excluded[p] = true
		}
		for _, s := range succs {
			excluded[s] = true
		}
		d.RemoveNodes = append(d.RemoveNodes, w)
		for _, p := range preds {
			for _, s := range succs {
				e := workflow.Edge{From: p, To: s}
				if !hasEdge(spec, p, s) && !added[e] {
					added[e] = true
					d.AddEdges = append(d.AddEdges, e)
				}
			}
		}
	}
	return d, nil
}

// RewireRandomEdges emits a Delta replacing up to n edges u→v with a skip
// edge u→t to a grandchild t of u through v. The replacement edge parallels
// the existing u→v→t path, so it cannot close a cycle; v keeps its v→t edge,
// so connectivity survives even when u→v was v's only in-edge (v simply
// becomes an extra source).
func RewireRandomEdges(spec *workflow.Spec, rng *rand.Rand, n int) (workflow.Delta, error) {
	if spec == nil || spec.G == nil {
		return workflow.Delta{}, fmt.Errorf("workloads: RewireRandomEdges: nil spec")
	}
	var d workflow.Delta
	ids := spec.G.Nodes()
	removed := make(map[workflow.Edge]bool)
	added := make(map[workflow.Edge]bool)
	for k := 0; k < n; k++ {
		for attempt := 0; attempt < 64; attempt++ {
			u := ids[rng.IntN(len(ids))]
			us := spec.G.Succ(u)
			if len(us) == 0 {
				continue
			}
			v := us[rng.IntN(len(us))]
			vs := spec.G.Succ(v)
			if len(vs) == 0 {
				continue
			}
			t := vs[rng.IntN(len(vs))]
			old := workflow.Edge{From: u, To: v}
			skip := workflow.Edge{From: u, To: t}
			if removed[old] || added[old] || removed[skip] || added[skip] || hasEdge(spec, u, t) {
				continue
			}
			removed[old] = true
			added[skip] = true
			d.RemoveEdges = append(d.RemoveEdges, old)
			d.AddEdges = append(d.AddEdges, skip)
			break
		}
	}
	return d, nil
}
