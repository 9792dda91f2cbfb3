package dag

import (
	"errors"
	"fmt"
	"slices"
)

// CriticalPath returns the maximum-weight source→sink path of the graph
// under the given node weights (the paper's find_critical_path). Weights are
// per-node (function runtimes); missing entries count as zero. The second
// return value is the path's total weight. Ties resolve deterministically in
// favour of earlier-inserted nodes.
func CriticalPath(g *Graph, weights map[string]float64) ([]string, float64, error) {
	topo, err := g.topoIndex()
	if err != nil {
		return nil, 0, err
	}
	for id, w := range weights {
		if !g.HasNode(id) {
			return nil, 0, fmt.Errorf("%w: weight for %q", ErrUnknownNode, id)
		}
		if w < 0 {
			return nil, 0, fmt.Errorf("dag: negative weight %v for %q", w, id)
		}
	}

	n := len(g.order)
	dist := make([]float64, n)
	prev := make([]int32, n) // -1: a source
	for _, i := range topo {
		best := 0.0
		bestPred := int32(-1)
		for _, p := range g.pred[i] {
			if bestPred < 0 || dist[p] > best || (dist[p] == best && p < bestPred) {
				best = dist[p]
				bestPred = p
			}
		}
		dist[i] = best + weights[g.order[i]]
		prev[i] = bestPred
	}

	// Pick the best sink.
	end := int32(-1)
	bestDist := -1.0
	for i := range g.order {
		if len(g.succ[i]) == 0 && dist[i] > bestDist {
			bestDist = dist[i]
			end = int32(i)
		}
	}
	if end < 0 {
		return nil, 0, errors.New("dag: no sink found")
	}

	var path []string
	for i := end; i >= 0; i = prev[i] {
		path = append(path, g.order[i])
	}
	slices.Reverse(path)
	return path, bestDist, nil
}

// PathWeight sums the node weights along path.
func PathWeight(path []string, weights map[string]float64) float64 {
	s := 0.0
	for _, id := range path {
		s += weights[id]
	}
	return s
}

// RuntimeSum is the paper's runtime_sum(path, start, end): the total weight
// of the nodes of path from start to end inclusive. It errors if either
// anchor is missing from the path or appears in the wrong order.
func RuntimeSum(path []string, start, end string, weights map[string]float64) (float64, error) {
	si, ei := -1, -1
	for i, id := range path {
		if id == start && si == -1 {
			si = i
		}
		if id == end {
			ei = i
		}
	}
	if si == -1 {
		return 0, fmt.Errorf("dag: runtime_sum start %q not on path", start)
	}
	if ei == -1 {
		return 0, fmt.Errorf("dag: runtime_sum end %q not on path", end)
	}
	if ei < si {
		return 0, fmt.Errorf("dag: runtime_sum end %q precedes start %q", end, start)
	}
	s := 0.0
	for _, id := range path[si : ei+1] {
		s += weights[id]
	}
	return s, nil
}
