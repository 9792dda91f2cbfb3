// Package dag implements the weighted directed-acyclic-graph substrate the
// Graph-Centric Scheduler operates on: construction and validation of
// workflow DAGs, topological ordering, critical-path extraction on
// node-weighted graphs, detour sub-path enumeration, and the runtime-sum
// window computation of Algorithm 1.
package dag

import (
	"errors"
	"fmt"
	"slices"
)

// Common construction and query errors.
var (
	ErrDuplicateNode = errors.New("dag: duplicate node")
	ErrUnknownNode   = errors.New("dag: unknown node")
	ErrSelfLoop      = errors.New("dag: self loop")
	ErrDuplicateEdge = errors.New("dag: duplicate edge")
	ErrCycle         = errors.New("dag: graph contains a cycle")
	ErrEmpty         = errors.New("dag: graph is empty")
)

// Graph is a mutable DAG with string node IDs. Node weights are supplied
// externally (as measured runtimes) when querying, so the same topology can
// be re-weighted between profiling rounds without rebuilding.
//
// Adjacency is held over insertion indices: node order[i] has successors
// succ[i] and predecessors pred[i], each in edge insertion order. The
// traversals (TopoSort, Validate, CriticalPath, the detour listing) walk
// these int slices and hash no string.
type Graph struct {
	order []string // node insertion order, for deterministic iteration
	index map[string]int
	succ  [][]int32
	pred  [][]int32
	edges int
}

// New returns an empty graph.
func New() *Graph {
	return NewWithCapacity(0)
}

// NewWithCapacity returns an empty graph with internal maps and slices
// pre-sized for n nodes, avoiding incremental rehashing when the final size
// is known up front (10k-node synthetic workloads).
func NewWithCapacity(n int) *Graph {
	return &Graph{
		order: make([]string, 0, n),
		index: make(map[string]int, n),
		succ:  make([][]int32, 0, n),
		pred:  make([][]int32, 0, n),
	}
}

// AddNode inserts a node. Adding an existing ID returns ErrDuplicateNode.
func (g *Graph) AddNode(id string) error {
	if id == "" {
		return errors.New("dag: empty node id")
	}
	if _, ok := g.index[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	g.index[id] = len(g.order)
	g.order = append(g.order, id)
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return nil
}

// MustAddNode is AddNode that panics on error; intended for static workflow
// definitions whose shape is fixed at compile time.
func (g *Graph) MustAddNode(id string) {
	if err := g.AddNode(id); err != nil {
		panic(err)
	}
}

// AddEdge inserts a directed edge from → to. Both endpoints must exist.
func (g *Graph) AddEdge(from, to string) error {
	fi, ok := g.index[from]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	ti, ok := g.index[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if fi == ti {
		return fmt.Errorf("%w: %q", ErrSelfLoop, from)
	}
	if slices.Contains(g.succ[fi], int32(ti)) {
		return fmt.Errorf("%w: %q -> %q", ErrDuplicateEdge, from, to)
	}
	g.succ[fi] = append(g.succ[fi], int32(ti))
	g.pred[ti] = append(g.pred[ti], int32(fi))
	g.edges++
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(from, to string) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// HasNode reports whether id is a node of g.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.index[id]
	return ok
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.order) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns the node IDs in insertion order (a copy).
func (g *Graph) Nodes() []string {
	return append([]string(nil), g.order...)
}

// Succ returns the successors of id in insertion order (a copy).
func (g *Graph) Succ(id string) []string { return g.names(g.adj(g.succ, id)) }

// Pred returns the predecessors of id in insertion order (a copy).
func (g *Graph) Pred(id string) []string { return g.names(g.adj(g.pred, id)) }

// OutDegree returns the number of successors of id (0 for unknown nodes).
func (g *Graph) OutDegree(id string) int { return len(g.adj(g.succ, id)) }

// InDegree returns the number of predecessors of id (0 for unknown nodes).
func (g *Graph) InDegree(id string) int { return len(g.adj(g.pred, id)) }

// adj returns id's list in the adjacency table tab; nil for an unknown id.
func (g *Graph) adj(tab [][]int32, id string) []int32 {
	if i, ok := g.index[id]; ok {
		return tab[i]
	}
	return nil
}

// names maps insertion indices to node IDs; nil for none.
func (g *Graph) names(idx []int32) []string {
	if len(idx) == 0 {
		return nil
	}
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = g.order[i]
	}
	return out
}

// Sources returns nodes with no predecessors, in insertion order.
func (g *Graph) Sources() []string {
	var out []string
	for i, id := range g.order {
		if len(g.pred[i]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Sinks returns nodes with no successors, in insertion order.
func (g *Graph) Sinks() []string {
	var out []string
	for i, id := range g.order {
		if len(g.succ[i]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Clone returns a deep copy of the graph. The copy is built directly from
// the internal representation — pre-sized, no duplicate-edge scans — so
// cloning a 10k-node graph costs one pass over nodes and edges instead of
// the quadratic-in-degree AddEdge path.
func (g *Graph) Clone() *Graph {
	out := NewWithCapacity(len(g.order))
	out.order = append(out.order, g.order...)
	for id, i := range g.index {
		out.index[id] = i
	}
	for i := range g.order {
		out.succ = append(out.succ, slices.Clone(g.succ[i]))
		out.pred = append(out.pred, slices.Clone(g.pred[i]))
	}
	out.edges = g.edges
	return out
}

// removeIndex splices the first occurrence of v out of s, preserving order.
func removeIndex(s []int32, v int32) []int32 {
	if i := slices.Index(s, v); i >= 0 {
		return slices.Delete(s, i, i+1)
	}
	return s
}

// RemoveEdge deletes the directed edge from → to. It returns ErrUnknownNode
// if either endpoint does not exist and an error if the edge is absent.
func (g *Graph) RemoveEdge(from, to string) error {
	fi, ok := g.index[from]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	ti, ok := g.index[to]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if !slices.Contains(g.succ[fi], int32(ti)) {
		return fmt.Errorf("dag: no edge %q -> %q", from, to)
	}
	g.succ[fi] = removeIndex(g.succ[fi], int32(ti))
	g.pred[ti] = removeIndex(g.pred[ti], int32(fi))
	g.edges--
	return nil
}

// RemoveNode deletes a node and every edge incident to it. Insertion order
// (and therefore the deterministic tie-breaking index) of the remaining
// nodes is preserved, and the other edges keep their order; the later
// nodes' indices shift down by one, so the operation is O(n + e).
func (g *Graph) RemoveNode(id string) error {
	pos, ok := g.index[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	p32 := int32(pos)
	for _, s := range g.succ[pos] {
		g.pred[s] = removeIndex(g.pred[s], p32)
		g.edges--
	}
	for _, p := range g.pred[pos] {
		g.succ[p] = removeIndex(g.succ[p], p32)
		g.edges--
	}
	delete(g.index, id)
	g.order = slices.Delete(g.order, pos, pos+1)
	g.succ = slices.Delete(g.succ, pos, pos+1)
	g.pred = slices.Delete(g.pred, pos, pos+1)
	for i := pos; i < len(g.order); i++ {
		g.index[g.order[i]] = i
	}
	for _, tab := range [2][][]int32{g.succ, g.pred} {
		for _, l := range tab {
			for k, v := range l {
				if v > p32 {
					l[k] = v - 1
				}
			}
		}
	}
	return nil
}

// TopoSort returns a topological order of the nodes (Kahn's algorithm with
// insertion-order tie-breaking, so the result is deterministic). It returns
// ErrCycle if the graph is cyclic and ErrEmpty if it has no nodes.
func (g *Graph) TopoSort() ([]string, error) {
	topo, err := g.topoIndex()
	if err != nil {
		return nil, err
	}
	return g.names(topo), nil
}

// TopoSucc returns TopoSort's order together with each node's successors
// as positions in that order: succ[k] lists the successors of order[k] in
// edge insertion order, nil when it has none. Both slices are the
// caller's.
func (g *Graph) TopoSucc() (order []string, succ [][]int32, err error) {
	topo, err := g.topoIndex()
	if err != nil {
		return nil, nil, err
	}
	pos := make([]int32, len(topo)) // insertion index -> position
	for k, i := range topo {
		pos[i] = int32(k)
	}
	// Every successor list is a capped span of one array.
	flat := make([]int32, 0, g.edges)
	succ = make([][]int32, len(topo))
	for k, i := range topo {
		from := len(flat)
		for _, s := range g.succ[i] {
			flat = append(flat, pos[s])
		}
		if len(flat) > from {
			succ[k] = flat[from:len(flat):len(flat)]
		}
	}
	return g.names(topo), succ, nil
}

// topoIndex is TopoSort as insertion indices. The traversal runs entirely
// on the index adjacency — one indegree slice and one sorted ready slice —
// so no map operation or string hashing happens on this path.
func (g *Graph) topoIndex() ([]int32, error) {
	n := len(g.order)
	if n == 0 {
		return nil, ErrEmpty
	}
	// out doubles as the ready queue: out[head:] holds the ready nodes,
	// kept sorted by insertion index for determinism.
	indeg := make([]int32, n)
	out := make([]int32, 0, n)
	for i := range n {
		indeg[i] = int32(len(g.pred[i]))
		if indeg[i] == 0 {
			out = append(out, int32(i))
		}
	}
	for head := 0; head < len(out); head++ {
		for _, s := range g.succ[out[head]] {
			indeg[s]--
			if indeg[s] == 0 {
				out = insertReady(out, head+1, s)
			}
		}
	}
	if len(out) != n {
		return nil, ErrCycle
	}
	return out, nil
}

// insertReady inserts i into the sorted tail q[from:].
func insertReady(q []int32, from int, i int32) []int32 {
	pos, _ := slices.BinarySearch(q[from:], i)
	return slices.Insert(q, from+pos, i)
}

// Validate checks that the graph is non-empty, acyclic, and that every node
// is reachable in the undirected sense from the first source (i.e. the
// workflow is one connected component).
func (g *Graph) Validate() error {
	if _, err := g.topoIndex(); err != nil {
		return err
	}
	// An acyclic non-empty graph has a source and a sink, so what is left
	// to check is undirected connectivity.
	n := len(g.order)
	seen := make([]bool, n)
	stack := make([]int32, 1, n)
	reached := 0
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[i] {
			continue
		}
		seen[i] = true
		reached++
		stack = append(stack, g.succ[i]...)
		stack = append(stack, g.pred[i]...)
	}
	if reached != n {
		return errors.New("dag: graph is disconnected")
	}
	return nil
}

// HasPath reports whether a directed path exists from src to dst.
func (g *Graph) HasPath(src, dst string) bool {
	si, ok := g.index[src]
	if !ok {
		return false
	}
	di, ok := g.index[dst]
	if !ok {
		return false
	}
	if si == di {
		return true
	}
	seen := make([]bool, len(g.order))
	seen[si] = true
	stack := []int32{int32(si)}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[i] {
			if int(s) == di {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}
