package dag_test

import (
	"context"
	"fmt"

	"aarc/internal/dag"
)

// ExampleCriticalPath builds the workflow of the paper's Fig. 4 (nodes A–F
// with the depicted runtimes) and extracts its critical path.
func ExampleCriticalPath() {
	g := dag.New()
	for _, id := range []string{"A", "B", "C", "D", "E", "F"} {
		g.MustAddNode(id)
	}
	// A -> B -> C -> F on top, A -> D -> E -> F below.
	g.MustAddEdge("A", "B")
	g.MustAddEdge("B", "C")
	g.MustAddEdge("C", "F")
	g.MustAddEdge("A", "D")
	g.MustAddEdge("D", "E")
	g.MustAddEdge("E", "F")

	weights := map[string]float64{
		"A": 32, "B": 20, "C": 25, "D": 76, "E": 63, "F": 38,
	}
	path, total, _ := dag.CriticalPath(g, weights)
	fmt.Println(path, total)

	subpaths, _ := dag.FindDetourSubpaths(context.Background(), g, path, weights, nil)
	for _, sp := range subpaths {
		fmt.Println(sp)
	}
	// Output:
	// [A D E F] 209
	// A -> B -> C -> F
}

// ExampleRuntimeSum computes the sub-SLO window of Algorithm 1 line 12: the
// duration the critical path spends between a detour's anchors.
func ExampleRuntimeSum() {
	critical := []string{"A", "D", "E", "F"}
	weights := map[string]float64{"A": 32, "D": 76, "E": 63, "F": 38}
	window, _ := dag.RuntimeSum(critical, "A", "F", weights)
	fmt.Println(window)
	// Output:
	// 209
}
