package workflow

import "testing"

// bench10kSpec is the shared 10k-node layered-random spec, built once per
// process.
var bench10kSpec = layeredSpec(10_000, 42)

func BenchmarkPlanCompile10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compilePlan(bench10kSpec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewRunner10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRunner(bench10kSpec, RunnerOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
