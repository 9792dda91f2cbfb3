// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (plus the ablation extension). Each iteration performs the
// complete experiment on the simulated testbed, so b.N=1 already produces
// the full result; custom metrics surface the headline numbers next to the
// wall-clock cost of regenerating them.
//
//	go test -bench=. -benchmem
package aarc_test

import (
	"testing"

	"aarc/internal/experiments"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
	"aarc/internal/simfaas"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

const benchSeed = 42

// BenchmarkEvaluate measures the evaluation hot path itself: one workflow
// execution per iteration on each paper workload, with allocations reported.
// Every figure in the evaluation is hundreds to thousands of these calls, so
// allocs/op here bounds the whole harness.
func BenchmarkEvaluate(b *testing.B) {
	for _, w := range experiments.Workloads() {
		b.Run(w, func(b *testing.B) {
			spec, err := workloads.ByName(w)
			if err != nil {
				b.Fatal(err)
			}
			runner, err := workflow.NewRunner(spec, workflow.RunnerOptions{
				HostCores: experiments.HostCores, Noise: true, Seed: benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			a := runner.Base()
			if _, err := runner.Evaluate(a); err != nil { // warm containers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runner.Evaluate(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkContainerInvoke measures the simulated platform's per-invocation
// cost on the steady (warm) path of one container.
func BenchmarkContainerInvoke(b *testing.B) {
	p := simfaas.New(simfaas.DefaultOptions())
	var c simfaas.Container
	prof := perfmodel.Profile{
		Name: "bench", CPUWorkMS: 1000, ParallelFrac: 0.5,
		FootprintMB: 512, MinMemMB: 128, PressureK: 1,
	}
	cfg := resources.Config{CPU: 2, MemMB: 1024}
	if _, err := p.Invoke(&c, &prof, cfg, 1, nil); err != nil { // warm it
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Invoke(&c, &prof, cfg, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Heatmaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunFig2All()
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 3 {
			b.Fatal("expected 3 workloads")
		}
	}
}

func BenchmarkFig3BOInstability(b *testing.B) {
	var fluct float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig3(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		fluct = r.FluctuationPct
	}
	b.ReportMetric(fluct, "fluctuation_%")
}

func BenchmarkFig5SearchTotals(b *testing.B) {
	var videoRuntimeRed, videoCostRed float64
	for i := 0; i < b.N; i++ {
		suite := experiments.NewSuite(benchSeed)
		r, err := experiments.RunFig5(suite)
		if err != nil {
			b.Fatal(err)
		}
		videoRuntimeRed = r.ReductionPct("video-analysis", "BO", "runtime")
		videoCostRed = r.ReductionPct("video-analysis", "BO", "cost")
	}
	// The paper's headline: −85.8% runtime and −90.1% cost vs BO on Video
	// Analysis; see EXPERIMENTS.md for the measured band.
	b.ReportMetric(videoRuntimeRed, "video_runtime_red_%")
	b.ReportMetric(videoCostRed, "video_cost_red_%")
}

func BenchmarkFig6RuntimeTrajectories(b *testing.B) {
	suite := experiments.NewSuite(benchSeed)
	if err := suite.RunAll(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(suite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7CostTrajectories(b *testing.B) {
	suite := experiments.NewSuite(benchSeed)
	if err := suite.RunAll(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(suite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Validation(b *testing.B) {
	var mlVsBO, mlVsMAFF float64
	for i := 0; i < b.N; i++ {
		suite := experiments.NewSuite(benchSeed)
		r, err := experiments.RunTable2(suite)
		if err != nil {
			b.Fatal(err)
		}
		mlVsBO = r.CostReductionPct("ml-pipeline", "BO")
		mlVsMAFF = r.CostReductionPct("ml-pipeline", "MAFF")
	}
	// The paper's headline: 49.6% vs BO and 61.7% vs MAFF on ML Pipeline.
	b.ReportMetric(mlVsBO, "ml_cost_red_vs_bo_%")
	b.ReportMetric(mlVsMAFF, "ml_cost_red_vs_maff_%")
}

func BenchmarkFig8InputAware(b *testing.B) {
	var lightVsMAFF float64
	var maffViolations int
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig8(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		lightVsMAFF = r.CostOptimizationPct("MAFF", "light")
		maffViolations = r.Violations["MAFF"]
	}
	b.ReportMetric(lightVsMAFF, "light_cost_red_vs_maff_%")
	b.ReportMetric(float64(maffViolations), "maff_slo_violations")
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblation(benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchPerMethod times one full configuration search per method on
// each workload — the raw cost of the search algorithms themselves
// (host-side compute, not simulated time).
func BenchmarkSearchPerMethod(b *testing.B) {
	for _, w := range experiments.Workloads() {
		for _, m := range experiments.MethodNames {
			b.Run(w+"/"+m, func(b *testing.B) {
				var samples int
				for i := 0; i < b.N; i++ {
					suite := experiments.NewSuite(benchSeed + uint64(i))
					run, err := suite.Run(w, m)
					if err != nil {
						b.Fatal(err)
					}
					samples = run.Outcome.Trace.Len()
				}
				b.ReportMetric(float64(samples), "samples")
			})
		}
	}
}
