package dag

import (
	"testing"
)

// bench10k builds the shared 10k-node, ~40k-edge layered-random benchmark
// graph once per process.
var bench10k = func() *Graph { return layeredRandomDAG(10_000, 3, 42) }()

func BenchmarkTopoSort10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench10k.TopoSort(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClone10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = bench10k.Clone()
	}
}

func BenchmarkCriticalPathFull10k(b *testing.B) {
	weights := make(map[string]float64, bench10k.NumNodes())
	for i, id := range bench10k.Nodes() {
		weights[id] = float64(1 + i%97)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CriticalPath(bench10k, weights); err != nil {
			b.Fatal(err)
		}
	}
}
