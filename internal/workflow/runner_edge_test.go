package workflow

import (
	"testing"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/pricing"
	"aarc/internal/resources"
	"aarc/internal/simfaas"
)

func pricingPaper() pricing.Model { return pricing.Paper() }

// multiSourceSpec builds {a, b} -> c: two sources joining at one sink.
func multiSourceSpec() *Spec {
	g := dag.New()
	for _, id := range []string{"a", "b", "c"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("a", "c")
	g.MustAddEdge("b", "c")
	s := &Spec{
		Name: "join",
		G:    g,
		Profiles: map[string]perfmodel.Profile{
			"a": simpleProfile("a", 1000),
			"b": simpleProfile("b", 5000),
			"c": simpleProfile("c", 1000),
		},
		SLOMS:  60_000,
		Limits: resources.DefaultLimits(),
	}
	s.Base = resources.Uniform(s.FunctionGroups(), resources.Config{CPU: 1, MemMB: 512})
	return s
}

func TestMultiSourceJoin(t *testing.T) {
	s := multiSourceSpec()
	r := noColdRunner(t, s, 96)
	res, err := r.Evaluate(s.Base)
	if err != nil {
		t.Fatal(err)
	}
	// Both sources start at t=0; c waits for the slower one.
	if !within(res.E2EMS, 6000, 1e-6) {
		t.Errorf("E2E = %v, want 6000 (max(1000,5000)+1000)", res.E2EMS)
	}
	if !within(res.Node("c").StartMS, 5000, 1e-6) {
		t.Errorf("join start = %v", res.Node("c").StartMS)
	}
}

func TestSingleNodeOverCapacity(t *testing.T) {
	// One node demanding 8 vCPU on a 4-core host: processor sharing rate
	// 4/8 = 0.5 stretches it 2x.
	g := dag.New()
	g.MustAddNode("x")
	s := &Spec{
		Name:     "solo",
		G:        g,
		Profiles: map[string]perfmodel.Profile{"x": simpleProfile("x", 4000)},
		SLOMS:    60_000,
		Limits:   resources.DefaultLimits(),
	}
	s.Base = resources.Uniform(s.FunctionGroups(), resources.Config{CPU: 8, MemMB: 512})
	r := noColdRunner(t, s, 4)
	res, err := r.Evaluate(s.Base)
	if err != nil {
		t.Fatal(err)
	}
	if !within(res.E2EMS, 8000, 1) {
		t.Errorf("over-capacity solo = %v, want ~8000", res.E2EMS)
	}
}

func TestZeroHostCoresDisablesContention(t *testing.T) {
	s := fanSpec()
	for g := range s.Base {
		s.Base[g] = resources.Config{CPU: 10, MemMB: 512}
	}
	r := noColdRunner(t, s, 0) // contention off
	res, err := r.Evaluate(s.Base)
	if err != nil {
		t.Fatal(err)
	}
	if !within(res.E2EMS, 6000, 1e-6) {
		t.Errorf("uncontended = %v, want 6000", res.E2EMS)
	}
}

func TestOOMParallelSiblingFinishes(t *testing.T) {
	s := fanSpec()
	// Give p1 its own group so only it can OOM.
	s.Groups = map[string]string{"p1": "p1g", "p2": "p2g"}
	s.Base = resources.Uniform(s.FunctionGroups(), resources.Config{CPU: 1, MemMB: 512})
	a := s.Base.Clone()
	a["p1g"] = resources.Config{CPU: 1, MemMB: 100} // below the 128 floor
	r := noColdRunner(t, s, 96)
	res, err := r.Evaluate(a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM || res.Fail != "p1" {
		t.Fatalf("expected p1 OOM: %+v", res)
	}
	// The sibling p2 was already in flight and completes; downstream t is
	// skipped because the workflow aborted.
	if res.Node("p2").Skipped || res.Node("p2").RuntimeMS == 0 {
		t.Error("in-flight sibling should finish")
	}
	if !res.Node("t").Skipped {
		t.Error("downstream of the failure must be skipped")
	}
	// E2E covers the sibling's full duration.
	if res.E2EMS < res.Node("p2").FinishMS {
		t.Errorf("E2E %v < p2 finish %v", res.E2EMS, res.Node("p2").FinishMS)
	}
}

func TestRunnerAccessors(t *testing.T) {
	s := chainSpec()
	p := simfaas.New(simfaas.DefaultOptions())
	r, err := NewRunner(s, RunnerOptions{HostCores: 96, Platform: p})
	if err != nil {
		t.Fatal(err)
	}
	if r.Platform() != p {
		t.Error("Platform accessor wrong")
	}
	if r.Price() != (pricingPaper()) {
		t.Error("default price should be the paper model")
	}
	if r.Spec() != s {
		t.Error("Spec accessor wrong")
	}
}

func TestRunnerRejectsInvalidSpec(t *testing.T) {
	s := chainSpec()
	s.SLOMS = 0
	if _, err := NewRunner(s, RunnerOptions{}); err == nil {
		t.Error("invalid spec should be rejected at construction")
	}
}

func TestInputScaleDefaultsToOne(t *testing.T) {
	s := chainSpec()
	for id, p := range s.Profiles {
		p.InputSensitive = true
		s.Profiles[id] = p
	}
	r1 := noColdRunner(t, s, 96)
	res1, _ := r1.Evaluate(s.Base)
	r2, err := NewRunner(s, RunnerOptions{HostCores: 96, InputScale: 1, Platform: simfaas.New(simfaas.Options{KeepAlive: true})})
	if err != nil {
		t.Fatal(err)
	}
	res2, _ := r2.Evaluate(s.Base)
	if !within(res1.E2EMS, res2.E2EMS, 1e-6) {
		t.Errorf("zero InputScale should default to 1: %v vs %v", res1.E2EMS, res2.E2EMS)
	}
}
