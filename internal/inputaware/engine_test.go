package inputaware

import (
	"context"
	"testing"

	"aarc/internal/core"
	"aarc/internal/search"
	"aarc/internal/testutil"
	"aarc/internal/workflow"
)

// sensitizedChain makes the test chain input-sensitive so per-class configs
// can differ.
func sensitizedChain(slo float64) *workflow.Spec {
	spec := testutil.ChainSpec(slo)
	for id, p := range spec.Profiles {
		p.InputSensitive = true
		spec.Profiles[id] = p
	}
	return spec
}

func quickClasses() []Class {
	return []Class{{Name: "small", Scale: 0.5}, {Name: "big", Scale: 1.5}}
}

func configuredEngine(t *testing.T) *Engine {
	t.Helper()
	spec := sensitizedChain(120_000)
	e, err := Configure(context.Background(), spec,
		workflow.RunnerOptions{HostCores: 96, Noise: true, Seed: 5},
		core.New(core.DefaultOptions()),
		search.Options{SLOMS: spec.SLOMS},
		quickClasses())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigureErrors(t *testing.T) {
	spec := sensitizedChain(120_000)
	opts := workflow.RunnerOptions{HostCores: 96, Seed: 1}
	if _, err := Configure(context.Background(), spec, opts, core.New(core.DefaultOptions()), search.Options{}, nil); err == nil {
		t.Error("no classes should error")
	}
	bad := []Class{{Name: "zero", Scale: 0}}
	if _, err := Configure(context.Background(), spec, opts, core.New(core.DefaultOptions()), search.Options{}, bad); err == nil {
		t.Error("non-positive scale should error")
	}
}

func TestDefaultVideoClasses(t *testing.T) {
	cls := DefaultVideoClasses()
	if len(cls) != 3 || cls[0].Name != "light" || cls[2].Name != "heavy" {
		t.Errorf("classes = %v", cls)
	}
	for i := 1; i < len(cls); i++ {
		if cls[i].Scale <= cls[i-1].Scale {
			t.Error("classes should have increasing scales")
		}
	}
}

func TestEngineHoldsPerClassConfigs(t *testing.T) {
	e := configuredEngine(t)
	for _, cls := range quickClasses() {
		cfg, ok := e.Config(cls.Name)
		if !ok || len(cfg) == 0 {
			t.Errorf("missing config for %s", cls.Name)
		}
		tr, ok := e.Trace(cls.Name)
		if !ok || tr.Len() == 0 {
			t.Errorf("missing trace for %s", cls.Name)
		}
	}
	if _, ok := e.Config("nope"); ok {
		t.Error("unknown class should report !ok")
	}
	if e.TotalSearchRuntimeMS() <= 0 {
		t.Error("total search runtime should be positive")
	}
	if got := e.Classes(); len(got) != 2 || got[0].Scale > got[1].Scale {
		t.Errorf("Classes = %v", got)
	}
}

func TestClassify(t *testing.T) {
	e := configuredEngine(t)
	cases := []struct {
		scale float64
		want  string
	}{
		{0.1, "small"},
		{0.5, "small"},
		{0.6, "big"},
		{1.5, "big"},
		{99, "big"}, // oversized falls back to the largest class
	}
	for _, c := range cases {
		if got := e.Classify(c.scale); got.Name != c.want {
			t.Errorf("Engine.Classify(%v) = %s, want %s", c.scale, got.Name, c.want)
		}
		if got := Classify(e.Classes(), c.scale); got.Name != c.want {
			t.Errorf("Classify(%v) = %s, want %s", c.scale, got.Name, c.want)
		}
	}
}

func TestDispatch(t *testing.T) {
	e := configuredEngine(t)
	cls, cfg := e.Dispatch(Request{ID: 1, Scale: 0.3})
	if cls.Name != "small" || len(cfg) == 0 {
		t.Errorf("Dispatch = %v %v", cls, cfg)
	}
	// Dispatched config matches the class's stored config.
	stored, _ := e.Config("small")
	if !cfg.Equal(stored) {
		t.Error("dispatched config differs from stored config")
	}
}

// The point of the plugin: the heavy-class configuration sustains heavy
// inputs within SLO, and the light-class configuration is cheaper.
func TestPerClassConfigsAreUseful(t *testing.T) {
	spec := sensitizedChain(120_000)
	e, err := Configure(context.Background(), spec,
		workflow.RunnerOptions{HostCores: 96, Noise: true, Seed: 5},
		core.New(core.DefaultOptions()),
		search.Options{SLOMS: spec.SLOMS},
		quickClasses())
	if err != nil {
		t.Fatal(err)
	}
	runner := testutil.NewRunner(t, spec, true, 6)

	smallCfg, _ := e.Config("small")
	bigCfg, _ := e.Config("big")

	smallRes, err := runner.EvaluateScale(smallCfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bigRes, err := runner.EvaluateScale(bigCfg, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if smallRes.OOM || smallRes.E2EMS > spec.SLOMS {
		t.Errorf("small class violates SLO: %+v", smallRes.E2EMS)
	}
	if bigRes.OOM || bigRes.E2EMS > spec.SLOMS {
		t.Errorf("big class violates SLO: %+v", bigRes.E2EMS)
	}
	// The light config on light input costs less than the heavy config on
	// light input (that is the saving the engine exists for).
	heavyOnLight, err := runner.EvaluateScale(bigCfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if smallRes.Cost > heavyOnLight.Cost {
		t.Errorf("light-class config should be cheaper on light input: %.0f vs %.0f",
			smallRes.Cost, heavyOnLight.Cost)
	}
}
