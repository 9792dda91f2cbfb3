package aarc_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"aarc"
)

func TestWorkloadAndNames(t *testing.T) {
	for _, name := range aarc.WorkloadNames() {
		spec, err := aarc.Workload(name)
		if err != nil {
			t.Fatalf("Workload(%q): %v", name, err)
		}
		if spec.Name != name {
			t.Errorf("Workload(%q).Name = %s", name, spec.Name)
		}
	}
	if _, err := aarc.Workload("nope"); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestConfigureDefaultsToAARC(t *testing.T) {
	spec, err := aarc.Workload("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := aarc.Configure(context.Background(), spec,
		aarc.WithBudget(aarc.Budget{MaxSamples: 6}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Method != "AARC" {
		t.Errorf("default method = %s, want AARC", rec.Method)
	}
	if rec.Trace.Len() != 6 {
		t.Errorf("budget of 6 samples recorded %d", rec.Trace.Len())
	}
	if len(rec.Assignment) == 0 {
		t.Error("empty assignment")
	}
	if rec.SLOMS != spec.SLOMS {
		t.Errorf("SLOMS = %v, want the spec's %v", rec.SLOMS, spec.SLOMS)
	}
}

// TestConfigureBatchMatchesSequentialConfigure: the pooled batch returns
// the same recommendations as sequential singleton Configure calls with
// identical options — parallelism must not leak into the results.
func TestConfigureBatchMatchesSequentialConfigure(t *testing.T) {
	var specs []*aarc.Spec
	for _, name := range aarc.WorkloadNames() {
		spec, err := aarc.Workload(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	opts := []aarc.Option{aarc.WithBudget(aarc.Budget{MaxSamples: 5}), aarc.WithBatchWorkers(2)}
	recs, err := aarc.ConfigureBatch(context.Background(), specs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(specs) {
		t.Fatalf("got %d recommendations for %d specs", len(recs), len(specs))
	}
	for i, spec := range specs {
		want, err := aarc.Configure(context.Background(), spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		got := recs[i]
		if got == nil {
			t.Fatalf("spec %d: nil recommendation", i)
		}
		if got.Final.E2EMS != want.Final.E2EMS || got.Final.Cost != want.Final.Cost ||
			got.Final.OOM != want.Final.OOM || got.Trace.Len() != want.Trace.Len() {
			t.Errorf("spec %d: batched final %+v (%d samples) != sequential %+v (%d samples)",
				i, got.Final, got.Trace.Len(), want.Final, want.Trace.Len())
		}
		for g, cfg := range want.Assignment {
			if got.Assignment[g] != cfg {
				t.Errorf("spec %d group %q: batched %v != sequential %v", i, g, got.Assignment[g], cfg)
			}
		}
	}
}

// TestConfigureBatchIsolatesFailures: a nil spec fails only its slot and
// the joined error names it; healthy slots still complete.
func TestConfigureBatchIsolatesFailures(t *testing.T) {
	spec, err := aarc.Workload("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := aarc.ConfigureBatch(context.Background(), []*aarc.Spec{nil, spec},
		aarc.WithBudget(aarc.Budget{MaxSamples: 3}))
	if err == nil {
		t.Fatal("batch with a nil spec returned no error")
	}
	if recs[0] != nil {
		t.Error("failed slot holds a recommendation")
	}
	if recs[1] == nil || len(recs[1].Assignment) == 0 {
		t.Errorf("healthy slot = %+v", recs[1])
	}
}

func TestSLOCompliantFalseWhenNeverMeasured(t *testing.T) {
	spec, err := aarc.Workload("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	// An SLO no sample can meet: the naive searcher falls back to the base
	// assignment without ever measuring it, so Final stays zero and the
	// recommendation must not claim compliance.
	rec, err := aarc.Configure(context.Background(), spec,
		aarc.WithMethod("random"),
		aarc.WithSLO(1*time.Millisecond),
		aarc.WithBudget(aarc.Budget{MaxSamples: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Final.E2EMS != 0 {
		t.Fatalf("expected unmeasured zero Final, got %+v", rec.Final)
	}
	if rec.SLOCompliant() {
		t.Error("SLOCompliant must be false when the assignment was never measured")
	}
}

func TestConfigureUnknownMethod(t *testing.T) {
	spec, err := aarc.Workload("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	_, err = aarc.Configure(context.Background(), spec, aarc.WithMethod("nope"))
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v, want unknown-method error listing the registry", err)
	}
}

func TestConfigureCancelledContextReturnsPartial(t *testing.T) {
	spec, err := aarc.Workload("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec, err := aarc.Configure(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rec == nil || rec.Trace == nil || rec.Trace.Len() == 0 {
		t.Fatal("cancelled Configure should return the partial recommendation")
	}
}

func TestConfigureSLOAndProgress(t *testing.T) {
	spec, err := aarc.Workload("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	rec, err := aarc.Configure(context.Background(), spec,
		aarc.WithMethod("maff"),
		aarc.WithSLO(150*time.Second),
		aarc.WithProgress(func(aarc.Sample) { n++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SLOMS != 150_000 {
		t.Errorf("WithSLO(150s) → SLOMS %v", rec.SLOMS)
	}
	if n != rec.Trace.Len() {
		t.Errorf("progress saw %d of %d samples", n, rec.Trace.Len())
	}
}

func TestRecommendationValidateContinuesSimulator(t *testing.T) {
	spec, err := aarc.Workload("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := aarc.Configure(context.Background(), spec, aarc.WithMethod("maff"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Final.E2EMS <= 0 {
		t.Fatal("Final not populated")
	}
	results, err := rec.Validate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("Validate(3) returned %d results", len(results))
	}
	for _, res := range results {
		if res.E2EMS <= 0 || res.Cost <= 0 {
			t.Errorf("implausible validation result %+v", res)
		}
	}
}

func TestConfigureClassesThroughFacade(t *testing.T) {
	spec, err := aarc.Workload("video-analysis")
	if err != nil {
		t.Fatal(err)
	}
	classes := []aarc.InputClass{{Name: "small", Scale: 0.5}, {Name: "big", Scale: 1.2}}
	// Keep the test fast: bound each per-class search.
	engine, err := aarc.ConfigureClasses(context.Background(), spec, classes,
		aarc.WithMethod("maff"), aarc.WithBudget(aarc.Budget{MaxSamples: 4}))
	if err != nil {
		t.Fatal(err)
	}
	for _, cls := range classes {
		if _, ok := engine.Config(cls.Name); !ok {
			t.Errorf("missing config for class %q", cls.Name)
		}
	}
	cls, cfg := engine.Dispatch(aarc.InputRequest{ID: 1, Scale: 0.4})
	if cls.Name != "small" || len(cfg) == 0 {
		t.Errorf("Dispatch = %v, %v", cls, cfg)
	}
}

func TestNewRunnerEvaluatesSpec(t *testing.T) {
	spec, err := aarc.Workload("ml-pipeline")
	if err != nil {
		t.Fatal(err)
	}
	runner, err := aarc.NewRunner(spec, aarc.WithSeed(7), aarc.WithNoise(false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Evaluate(spec.Base)
	if err != nil {
		t.Fatal(err)
	}
	if res.E2EMS <= 0 || len(res.Nodes) != spec.G.NumNodes() {
		t.Errorf("implausible result: e2e %v, %d nodes", res.E2EMS, len(res.Nodes))
	}
}

func TestSpecFingerprintThroughFacade(t *testing.T) {
	a, err := aarc.Workload("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	b, err := aarc.Workload("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	fpA, err := aarc.SpecFingerprint(a)
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := aarc.SpecFingerprint(b)
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Errorf("two loads of the same workload fingerprint differently: %s vs %s", fpA, fpB)
	}
	other, err := aarc.Workload("ml-pipeline")
	if err != nil {
		t.Fatal(err)
	}
	fpO, err := aarc.SpecFingerprint(other)
	if err != nil {
		t.Fatal(err)
	}
	if fpO == fpA {
		t.Error("distinct workloads share a fingerprint")
	}
}

func TestNewServiceCachesAcrossCalls(t *testing.T) {
	svc, err := aarc.NewService(aarc.WithBudget(aarc.Budget{MaxSamples: 20}))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := aarc.Workload("chatbot")
	if err != nil {
		t.Fatal(err)
	}
	rec1, hit1, err := svc.Configure(context.Background(), spec, aarc.ServiceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	rec2, hit2, err := svc.Configure(context.Background(), spec, aarc.ServiceRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if hit1 || !hit2 {
		t.Errorf("cache hits = %v, %v; want false, true", hit1, hit2)
	}
	if rec1.Fingerprint != rec2.Fingerprint || rec1.Samples != rec2.Samples {
		t.Errorf("hit returned a different recommendation: %+v vs %+v", rec1, rec2)
	}
	if st := svc.Stats(); st.Searches != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 search / 1 hit", st)
	}
}

// TestServiceDispatchMatchesConfigureClasses pins the service's dispatch
// to the §IV-D engine: for every default video class, Service.Dispatch
// serves the configuration ConfigureClasses searches under the same
// options.
func TestServiceDispatchMatchesConfigureClasses(t *testing.T) {
	spec, err := aarc.Workload("video-analysis")
	if err != nil {
		t.Fatal(err)
	}
	ctx, classes := context.Background(), aarc.DefaultVideoClasses()
	for _, method := range []string{"aarc", "bo", "maff", "random"} {
		opts := []aarc.Option{aarc.WithMethod(method), aarc.WithBudget(aarc.Budget{MaxSamples: 40})}
		engine, err := aarc.ConfigureClasses(ctx, spec, classes, opts...)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := aarc.NewService(opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, cls := range classes {
			res, _, err := svc.Dispatch(ctx, spec, nil, cls.Scale, aarc.ServiceRequest{})
			if err != nil {
				t.Fatal(err)
			}
			got := (&aarc.ServiceRecommendation{Assignment: res.Assignment}).ResourceAssignment()
			if want, _ := engine.Config(cls.Name); res.Class != cls.Name || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: dispatch at %v = class %s %v, want class %s %v", method, cls.Scale, res.Class, got, cls.Name, want)
			}
		}
		svc.Close()
	}
}
