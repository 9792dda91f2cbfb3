package workflow

import (
	"slices"
	"sync"
	"testing"

	"aarc/internal/search"
	"aarc/internal/simfaas"
)

// TestConcurrentRunnersSharedPlatform exercises the documented concurrency
// contract under the race detector: one Runner per goroutine (each with its
// own scratch arena, containers and RNG), all invoking one shared, immutable
// simfaas.Platform. Sharing the platform must not couple the runners: each
// goroutine's results equal those of a runner with the same seed that ran
// alone.
func TestConcurrentRunnersSharedPlatform(t *testing.T) {
	spec := fanSpec()
	platform := simfaas.New(simfaas.DefaultOptions())

	const goroutines = 8
	const evals = 50
	run := func(seed uint64, platform *simfaas.Platform) ([]search.Result, error) {
		r, err := NewRunner(spec, RunnerOptions{
			HostCores: 96, Noise: true, Seed: seed, Platform: platform,
		})
		if err != nil {
			return nil, err
		}
		out := make([]search.Result, evals)
		for i := range out {
			if out[i], err = r.Evaluate(spec.Base); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	results := make([][]search.Result, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = run(uint64(g), platform)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g, got := range results {
		want, err := run(uint64(g), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].E2EMS <= 0 {
				t.Fatalf("goroutine %d eval %d: degenerate E2E %v", g, i, got[i].E2EMS)
			}
			if got[i].E2EMS != want[i].E2EMS || got[i].Cost != want[i].Cost ||
				!slices.Equal(got[i].Nodes, want[i].Nodes) {
				t.Fatalf("goroutine %d eval %d: E2E %v cost %v, sequential runner %v %v",
					g, i, got[i].E2EMS, got[i].Cost, want[i].E2EMS, want[i].Cost)
			}
		}
	}
}

// TestMeanEvaluateDoesNotMutateRunner pins the satellite fix: MeanEvaluate
// threads the noise override through the call instead of toggling runner
// state, so the RNG stream position is all that evolves between noisy
// evaluations.
func TestMeanEvaluateDoesNotMutateRunner(t *testing.T) {
	s := chainSpec()
	for id, p := range s.Profiles {
		p.NoiseStd = 0.05
		s.Profiles[id] = p
	}
	mk := func() *Runner {
		r, err := NewRunner(s, RunnerOptions{HostCores: 96, Noise: true, Seed: 21,
			Platform: simfaas.New(simfaas.Options{KeepAlive: true})})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Interleaving MeanEvaluate calls must not shift the noisy RNG stream.
	r1 := mk()
	n1a, _ := r1.Evaluate(s.Base)
	n1b, _ := r1.Evaluate(s.Base)

	r2 := mk()
	m1, _ := r2.MeanEvaluate(s.Base)
	n2a, _ := r2.Evaluate(s.Base)
	m2, _ := r2.MeanEvaluate(s.Base)
	n2b, _ := r2.Evaluate(s.Base)

	if m1.E2EMS != m2.E2EMS {
		t.Error("MeanEvaluate should be deterministic")
	}
	if n1a.E2EMS != n2a.E2EMS || n1b.E2EMS != n2b.E2EMS {
		t.Error("MeanEvaluate must not perturb the noisy evaluation stream")
	}
}

func BenchmarkRunnerEvaluate(b *testing.B) {
	s := fanSpec()
	r, err := NewRunner(s, RunnerOptions{HostCores: 96, Noise: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Evaluate(s.Base); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Evaluate(s.Base); err != nil {
			b.Fatal(err)
		}
	}
}
