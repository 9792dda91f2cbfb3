package dag

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

// chain builds a -> b -> c.
func chain(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []string{"a", "b", "c"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "c")
	return g
}

// diamond builds s -> (m1|m2) -> t.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []string{"s", "m1", "m2", "t"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("s", "m1")
	g.MustAddEdge("s", "m2")
	g.MustAddEdge("m1", "t")
	g.MustAddEdge("m2", "t")
	return g
}

func TestAddNodeErrors(t *testing.T) {
	g := New()
	if err := g.AddNode(""); err == nil {
		t.Error("empty id should error")
	}
	if err := g.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("a"); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate err = %v", err)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	g.MustAddNode("a")
	g.MustAddNode("b")
	if err := g.AddEdge("x", "b"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown from err = %v", err)
	}
	if err := g.AddEdge("a", "x"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown to err = %v", err)
	}
	if err := g.AddEdge("a", "a"); !errors.Is(err, ErrSelfLoop) {
		t.Errorf("self loop err = %v", err)
	}
	if err := g.AddEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("a", "b"); !errors.Is(err, ErrDuplicateEdge) {
		t.Errorf("duplicate edge err = %v", err)
	}
}

func TestAccessors(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Errorf("counts: %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.HasNode("m1") || g.HasNode("zz") {
		t.Error("HasNode wrong")
	}
	if got := g.Succ("s"); len(got) != 2 || got[0] != "m1" || got[1] != "m2" {
		t.Errorf("Succ(s) = %v", got)
	}
	if got := g.Pred("t"); len(got) != 2 {
		t.Errorf("Pred(t) = %v", got)
	}
	if src := g.Sources(); len(src) != 1 || src[0] != "s" {
		t.Errorf("Sources = %v", src)
	}
	if snk := g.Sinks(); len(snk) != 1 || snk[0] != "t" {
		t.Errorf("Sinks = %v", snk)
	}
	// Returned slices are copies.
	g.Succ("s")[0] = "corrupted"
	if g.Succ("s")[0] != "m1" {
		t.Error("Succ leaked internal storage")
	}
}

func TestTopoSort(t *testing.T) {
	g := diamond(t)
	topo, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, id := range topo {
		pos[id] = i
	}
	for _, e := range [][2]string{{"s", "m1"}, {"s", "m2"}, {"m1", "t"}, {"m2", "t"}} {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("topo violates edge %v: %v", e, topo)
		}
	}
	if _, err := New().TopoSort(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty graph err = %v", err)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := chain(t)
	g.MustAddEdge("c", "a")
	if _, err := g.TopoSort(); !errors.Is(err, ErrCycle) {
		t.Errorf("cycle err = %v", err)
	}
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("Validate cycle err = %v", err)
	}
}

func TestValidate(t *testing.T) {
	if err := diamond(t).Validate(); err != nil {
		t.Fatal(err)
	}
	// Disconnected graph.
	g := chain(t)
	g.MustAddNode("island")
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "disconnected") {
		t.Errorf("disconnected err = %v", err)
	}
}

func TestHasPath(t *testing.T) {
	g := diamond(t)
	if !g.HasPath("s", "t") || !g.HasPath("s", "m1") || !g.HasPath("m2", "t") {
		t.Error("expected paths missing")
	}
	if g.HasPath("m1", "m2") || g.HasPath("t", "s") {
		t.Error("unexpected paths")
	}
	if !g.HasPath("s", "s") {
		t.Error("trivial self path should hold")
	}
	if g.HasPath("s", "nope") {
		t.Error("unknown node should have no path")
	}
}

func TestClone(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.MustAddNode("extra")
	c.MustAddEdge("t", "extra")
	if g.HasNode("extra") || g.NumEdges() != 4 {
		t.Error("clone mutation leaked")
	}
}

// TestCloneEqualsOriginal checks that a larger graph clones with identical node
// order and adjacency, and that the clone is a deep copy.
func TestCloneEqualsOriginal(t *testing.T) {
	g := layeredRandomDAG(200, 3, 7)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("clone shape %d/%d vs %d/%d", c.NumNodes(), c.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i, id := range g.Nodes() {
		if c.Nodes()[i] != id {
			t.Fatal("clone node order differs")
		}
		cs, gs := c.Succ(id), g.Succ(id)
		if len(cs) != len(gs) {
			t.Fatalf("succ(%s) differs", id)
		}
		for j := range cs {
			if cs[j] != gs[j] {
				t.Fatalf("succ(%s) differs", id)
			}
		}
	}
	c.MustAddNode("extra")
	c.MustAddEdge(g.Nodes()[0], "extra")
	if g.HasNode("extra") || g.NumEdges() == c.NumEdges() {
		t.Error("clone shares state with the original")
	}
}

// layeredRandomDAG builds a connected layered-random DAG with n nodes: node i gets
// a guaranteed edge from a random earlier node plus up to deg extras.
func layeredRandomDAG(n, deg int, seed uint64) *Graph {
	rng := rand.New(rand.NewPCG(seed, 0xd1a))
	g := NewWithCapacity(n)
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprintf("n%05d", i))
	}
	ids := g.Nodes()
	for i := 1; i < n; i++ {
		g.MustAddEdge(ids[rng.IntN(i)], ids[i])
		for k := 0; k < deg; k++ {
			j := rng.IntN(i)
			_ = g.AddEdge(ids[j], ids[i]) // ignore duplicates
		}
	}
	return g
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.MustAddNode("a")
	g.MustAddNode("b")
	g.MustAddEdge("a", "b")
	if err := g.RemoveEdge("a", "b"); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || len(g.Succ("a")) != 0 || len(g.Pred("b")) != 0 {
		t.Fatalf("edge not fully removed: %d edges", g.NumEdges())
	}
	if err := g.RemoveEdge("a", "b"); err == nil {
		t.Error("removing a missing edge should error")
	}
	if err := g.RemoveEdge("a", "zz"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
}

func TestRemoveNode(t *testing.T) {
	g := New()
	for _, id := range []string{"a", "b", "c", "d"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "c")
	g.MustAddEdge("b", "d")
	g.MustAddEdge("a", "d")
	if err := g.RemoveNode("b"); err != nil {
		t.Fatal(err)
	}
	if g.HasNode("b") {
		t.Fatal("b still present")
	}
	if g.NumEdges() != 1 { // only a->d survives
		t.Fatalf("want 1 edge, got %d", g.NumEdges())
	}
	// Insertion order of the survivors is preserved, indices compacted.
	want := []string{"a", "c", "d"}
	got := g.Nodes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("nodes after removal = %v", got)
		}
		if g.index[want[i]] != i {
			t.Errorf("index[%s] = %d, want %d", want[i], g.index[want[i]], i)
		}
	}
	if err := g.RemoveNode("zz"); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("want ErrUnknownNode, got %v", err)
	}
}

func TestCriticalPathChain(t *testing.T) {
	g := chain(t)
	w := map[string]float64{"a": 1, "b": 2, "c": 3}
	path, total, err := CriticalPath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 || len(path) != 3 || path[0] != "a" || path[2] != "c" {
		t.Errorf("chain critical path = %v (%v)", path, total)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	g := diamond(t)
	w := map[string]float64{"s": 1, "m1": 10, "m2": 3, "t": 1}
	path, total, err := CriticalPath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"s", "m1", "t"}
	if total != 12 || !equalPath(path, want) {
		t.Errorf("diamond critical path = %v (%v), want %v (12)", path, total, want)
	}
	// Flip the weights: the other branch wins.
	w["m1"], w["m2"] = 3, 10
	path, _, _ = CriticalPath(g, w)
	if !equalPath(path, []string{"s", "m2", "t"}) {
		t.Errorf("flipped critical path = %v", path)
	}
}

func TestCriticalPathTieDeterminism(t *testing.T) {
	g := diamond(t)
	w := map[string]float64{"s": 1, "m1": 5, "m2": 5, "t": 1}
	p1, _, _ := CriticalPath(g, w)
	p2, _, _ := CriticalPath(g, w)
	if !equalPath(p1, p2) {
		t.Error("ties must resolve deterministically")
	}
	if !equalPath(p1, []string{"s", "m1", "t"}) {
		t.Errorf("tie should favour earlier insertion: %v", p1)
	}
}

func TestCriticalPathErrors(t *testing.T) {
	g := chain(t)
	if _, _, err := CriticalPath(g, map[string]float64{"zz": 1}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown weight err = %v", err)
	}
	if _, _, err := CriticalPath(g, map[string]float64{"a": -1}); err == nil {
		t.Error("negative weight should error")
	}
	// Missing weights default to zero and still work.
	path, total, err := CriticalPath(g, nil)
	if err != nil || total != 0 || len(path) == 0 {
		t.Errorf("nil weights: %v %v %v", path, total, err)
	}
}

func TestPathWeightRuntimeSum(t *testing.T) {
	w := map[string]float64{"a": 1, "b": 2, "c": 4}
	if got := PathWeight([]string{"a", "c"}, w); got != 5 {
		t.Errorf("PathWeight = %v", got)
	}
	got, err := RuntimeSum([]string{"a", "b", "c"}, "a", "c", w)
	if err != nil || got != 7 {
		t.Errorf("RuntimeSum full = %v (%v)", got, err)
	}
	got, err = RuntimeSum([]string{"a", "b", "c"}, "b", "b", w)
	if err != nil || got != 2 {
		t.Errorf("RuntimeSum single = %v (%v)", got, err)
	}
	if _, err := RuntimeSum([]string{"a", "b"}, "x", "b", w); err == nil {
		t.Error("missing start should error")
	}
	if _, err := RuntimeSum([]string{"a", "b"}, "a", "x", w); err == nil {
		t.Error("missing end should error")
	}
	if _, err := RuntimeSum([]string{"a", "b"}, "b", "a", w); err == nil {
		t.Error("reversed anchors should error")
	}
}

func TestFindDetourSubpathsDiamond(t *testing.T) {
	g := diamond(t)
	w := map[string]float64{"s": 1, "m1": 10, "m2": 3, "t": 1}
	critical := []string{"s", "m1", "t"}
	sps, err := FindDetourSubpaths(context.Background(), g, critical, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sps) != 1 {
		t.Fatalf("subpaths = %v, want exactly the m2 detour", sps)
	}
	sp := sps[0]
	if sp.Start != "s" || sp.End != "t" || !equalPath(sp.Nodes, []string{"s", "m2", "t"}) {
		t.Errorf("subpath = %+v", sp)
	}
	if got := sp.Interior(); len(got) != 1 || got[0] != "m2" {
		t.Errorf("Interior = %v", got)
	}
	if !strings.Contains(sp.String(), "m2") {
		t.Errorf("String = %q", sp.String())
	}
}

func TestFindDetourSubpathsScatter(t *testing.T) {
	// start -> split -> {c1..c4} -> end, critical through c1.
	g := New()
	g.MustAddNode("start")
	g.MustAddNode("split")
	for _, id := range []string{"c1", "c2", "c3", "c4"} {
		g.MustAddNode(id)
	}
	g.MustAddNode("end")
	g.MustAddEdge("start", "split")
	for _, id := range []string{"c1", "c2", "c3", "c4"} {
		g.MustAddEdge("split", id)
		g.MustAddEdge(id, "end")
	}
	w := map[string]float64{"start": 1, "split": 2, "c1": 10, "c2": 9, "c3": 8, "c4": 7, "end": 1}
	critical, _, err := CriticalPath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if !equalPath(critical, []string{"start", "split", "c1", "end"}) {
		t.Fatalf("critical = %v", critical)
	}
	sps, err := FindDetourSubpaths(context.Background(), g, critical, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sps) != 3 {
		t.Fatalf("want 3 detours, got %v", sps)
	}
	// Ordered by descending interior weight: c2, c3, c4.
	if sps[0].Nodes[1] != "c2" || sps[1].Nodes[1] != "c3" || sps[2].Nodes[1] != "c4" {
		t.Errorf("detour order: %v", sps)
	}
	for _, sp := range sps {
		if sp.Start != "split" || sp.End != "end" {
			t.Errorf("anchors: %+v", sp)
		}
	}
}

func TestFindDetourSubpathsMultiHop(t *testing.T) {
	// s -> a -> t critical; s -> x -> y -> t detour with two interior hops.
	g := New()
	for _, id := range []string{"s", "a", "x", "y", "t"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("s", "a")
	g.MustAddEdge("a", "t")
	g.MustAddEdge("s", "x")
	g.MustAddEdge("x", "y")
	g.MustAddEdge("y", "t")
	w := map[string]float64{"s": 1, "a": 20, "x": 2, "y": 3, "t": 1}
	critical := []string{"s", "a", "t"}
	sps, err := FindDetourSubpaths(context.Background(), g, critical, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sps) != 1 || !equalPath(sps[0].Nodes, []string{"s", "x", "y", "t"}) {
		t.Errorf("multi-hop detour = %v", sps)
	}
}

func TestFindDetourSubpathsErrors(t *testing.T) {
	g := diamond(t)
	if _, err := FindDetourSubpaths(context.Background(), g, []string{"nope"}, nil, nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown critical err = %v", err)
	}
	if _, err := FindDetourSubpaths(context.Background(), g, []string{"s", "s"}, nil, nil); err == nil {
		t.Error("repeated critical node should error")
	}
}

func TestDOT(t *testing.T) {
	g := diamond(t)
	out := DOT(g, map[string]float64{"s": 1000}, []string{"s", "m1", "t"})
	for _, want := range []string{"digraph", `"s" ->`, "1000ms", "style=bold", "penwidth=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q in:\n%s", want, out)
		}
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(rng *rand.Rand) (*Graph, map[string]float64) {
	g := New()
	w := map[string]float64{}
	layers := 2 + rng.IntN(4)
	var prev []string
	id := 0
	for l := 0; l < layers; l++ {
		width := 1 + rng.IntN(3)
		var cur []string
		for i := 0; i < width; i++ {
			name := string(rune('a'+l)) + string(rune('0'+i))
			_ = id
			g.MustAddNode(name)
			w[name] = float64(rng.IntN(100))
			cur = append(cur, name)
		}
		for _, c := range cur {
			if len(prev) > 0 {
				// connect to at least one predecessor to stay connected
				g.MustAddEdge(prev[rng.IntN(len(prev))], c)
				for _, p := range prev {
					if rng.Float64() < 0.3 {
						_ = g.AddEdge(p, c) // ignore duplicate errors
					}
				}
			}
		}
		prev = cur
	}
	return g, w
}

// Property: the critical path's weight is >= the weight of any random
// source-to-sink walk, and equals the DP total.
func TestQuickCriticalPathDominates(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 200; trial++ {
		g, w := randomDAG(rng)
		path, total, err := CriticalPath(g, w)
		if err != nil {
			t.Fatal(err)
		}
		if got := PathWeight(path, w); got != total {
			t.Fatalf("total %v != path weight %v", total, got)
		}
		// Random greedy walks never beat the critical path.
		for k := 0; k < 20; k++ {
			cur := g.Sources()[rng.IntN(len(g.Sources()))]
			walk := []string{cur}
			for {
				succ := g.Succ(cur)
				if len(succ) == 0 {
					break
				}
				cur = succ[rng.IntN(len(succ))]
				walk = append(walk, cur)
			}
			if PathWeight(walk, w) > total {
				t.Fatalf("walk %v (%v) beats critical %v (%v)", walk, PathWeight(walk, w), path, total)
			}
		}
		// Edges of the critical path must exist.
		for i := 1; i < len(path); i++ {
			found := false
			for _, s := range g.Succ(path[i-1]) {
				if s == path[i] {
					found = true
				}
			}
			if !found {
				t.Fatalf("critical path uses non-edge %s->%s", path[i-1], path[i])
			}
		}
	}
}

// Property: every detour subpath starts and ends on the critical path, with
// all interior nodes off it, and its node sequence follows real edges.
func TestQuickSubpathInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for trial := 0; trial < 200; trial++ {
		g, w := randomDAG(rng)
		critical, _, err := CriticalPath(g, w)
		if err != nil {
			t.Fatal(err)
		}
		onCP := map[string]bool{}
		for _, id := range critical {
			onCP[id] = true
		}
		sps, err := FindDetourSubpaths(context.Background(), g, critical, w, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range sps {
			if !onCP[sp.Start] || !onCP[sp.End] {
				t.Fatalf("anchors off critical path: %+v", sp)
			}
			for _, n := range sp.Interior() {
				if onCP[n] {
					t.Fatalf("interior node %q on critical path: %+v", n, sp)
				}
			}
			for i := 1; i < len(sp.Nodes); i++ {
				found := false
				for _, s := range g.Succ(sp.Nodes[i-1]) {
					if s == sp.Nodes[i] {
						found = true
					}
				}
				if !found {
					t.Fatalf("subpath uses non-edge %s->%s", sp.Nodes[i-1], sp.Nodes[i])
				}
			}
		}
	}
}

// Property (quick harness): topological order respects all edges.
func TestQuickTopoRespectsEdges(t *testing.T) {
	f := func(seed1, seed2 uint64) bool {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		g, _ := randomDAG(rng)
		topo, err := g.TopoSort()
		if err != nil {
			return false
		}
		pos := map[string]int{}
		for i, id := range topo {
			pos[id] = i
		}
		for _, u := range g.Nodes() {
			for _, v := range g.Succ(u) {
				if pos[u] >= pos[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickTopoSucc: TopoSucc's order is TopoSort's, and succ[k] names
// Succ(order[k]) in order, as positions in that order; also after a
// RemoveNode has renumbered the later nodes, and the slices are the
// caller's to change. The nodes are inserted in a shuffled order, so
// positions and insertion indices differ.
func TestQuickTopoSucc(t *testing.T) {
	f := func(seed1, seed2 uint64) bool {
		rng := rand.New(rand.NewPCG(seed1, seed2))
		src, _ := randomDAG(rng)
		ids := src.Nodes()
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		g := New()
		for _, id := range ids {
			g.MustAddNode(id)
		}
		for _, id := range src.Nodes() {
			for _, s := range src.Succ(id) {
				g.MustAddEdge(id, s)
			}
		}
		if n := g.Nodes(); len(n) > 2 {
			if err := g.RemoveNode(n[rng.IntN(len(n))]); err != nil {
				return false
			}
		}
		topo, _ := g.TopoSort()
		order, succ, err := g.TopoSucc()
		if err != nil || !equalPath(order, topo) || len(succ) != len(order) {
			return false
		}
		for k, id := range order {
			want := g.Succ(id)
			if len(succ[k]) != len(want) {
				return false
			}
			for j, s := range succ[k] {
				if order[s] != want[j] {
					return false
				}
			}
			if len(succ[k]) > 0 {
				succ[k][0] = -1
			}
		}
		order[0] = "changed"
		again, _, _ := g.TopoSucc()
		return equalPath(again, topo)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func equalPath(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
