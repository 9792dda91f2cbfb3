package workflow

import (
	"strings"
	"testing"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
	"aarc/internal/simfaas"
)

// simpleProfile returns a fully-serial profile with fixed compute and no IO,
// so runtimes are exactly predictable: t = work / min(cpu, 1).
func simpleProfile(name string, workMS float64) perfmodel.Profile {
	return perfmodel.Profile{
		Name: name, CPUWorkMS: workMS, ParallelFrac: 0, IOMS: 0,
		FootprintMB: 256, MinMemMB: 128, PressureK: 1,
	}
}

// chainSpec builds a->b->c with works 1000/2000/3000 ms.
func chainSpec() *Spec {
	g := dag.New()
	g.MustAddNode("a")
	g.MustAddNode("b")
	g.MustAddNode("c")
	g.MustAddEdge("a", "b")
	g.MustAddEdge("b", "c")
	s := &Spec{
		Name: "chain",
		G:    g,
		Profiles: map[string]perfmodel.Profile{
			"a": simpleProfile("a", 1000),
			"b": simpleProfile("b", 2000),
			"c": simpleProfile("c", 3000),
		},
		SLOMS:  60_000,
		Limits: resources.DefaultLimits(),
	}
	s.Base = resources.Uniform(s.FunctionGroups(), resources.Config{CPU: 2, MemMB: 1024})
	return s
}

// fanSpec builds s -> {p1, p2} -> t with a scatter group.
func fanSpec() *Spec {
	g := dag.New()
	for _, id := range []string{"s", "p1", "p2", "t"} {
		g.MustAddNode(id)
	}
	g.MustAddEdge("s", "p1")
	g.MustAddEdge("s", "p2")
	g.MustAddEdge("p1", "t")
	g.MustAddEdge("p2", "t")
	s := &Spec{
		Name: "fan",
		G:    g,
		Profiles: map[string]perfmodel.Profile{
			"s":  simpleProfile("s", 1000),
			"p1": simpleProfile("p", 4000),
			"p2": simpleProfile("p", 4000),
			"t":  simpleProfile("t", 1000),
		},
		Groups: map[string]string{"p1": "p", "p2": "p"},
		SLOMS:  60_000,
		Limits: resources.DefaultLimits(),
	}
	s.Base = resources.Uniform(s.FunctionGroups(), resources.Config{CPU: 1, MemMB: 512})
	return s
}

func noColdRunner(t *testing.T, spec *Spec, cores float64) *Runner {
	t.Helper()
	// Use a platform with zero cold-start latency so makespan arithmetic is
	// exact.
	p := simfaas.New(simfaas.Options{KeepAlive: true})
	r, err := NewRunner(spec, RunnerOptions{HostCores: cores, Platform: p})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSpecValidate(t *testing.T) {
	if err := chainSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"nil dag", func(s *Spec) { s.G = nil }},
		{"zero slo", func(s *Spec) { s.SLOMS = 0 }},
		{"bad limits", func(s *Spec) { s.Limits.CPUStep = 0 }},
		{"missing profile", func(s *Spec) { delete(s.Profiles, "b") }},
		{"bad profile", func(s *Spec) { p := s.Profiles["a"]; p.ParallelFrac = 2; s.Profiles["a"] = p }},
		{"missing base", func(s *Spec) { delete(s.Base, "c") }},
		{"base out of limits", func(s *Spec) { s.Base["a"] = resources.Config{CPU: 99, MemMB: 128} }},
		{"group for unknown node", func(s *Spec) { s.Groups = map[string]string{"zz": "g"} }},
		{"empty group name", func(s *Spec) { s.Groups = map[string]string{"a": ""} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := chainSpec()
			c.mutate(s)
			if err := s.Validate(); err == nil {
				t.Errorf("expected validation error for %s", c.name)
			}
		})
	}
}

func TestGroups(t *testing.T) {
	s := fanSpec()
	groups := s.FunctionGroups()
	want := []string{"p", "s", "t"}
	if len(groups) != len(want) {
		t.Fatalf("groups = %v", groups)
	}
	for i := range want {
		if groups[i] != want[i] {
			t.Fatalf("groups = %v, want %v", groups, want)
		}
	}
	if s.GroupOf("p1") != "p" || s.GroupOf("s") != "s" {
		t.Error("GroupOf wrong")
	}
	nodes := s.NodesInGroup("p")
	if len(nodes) != 2 || nodes[0] != "p1" || nodes[1] != "p2" {
		t.Errorf("NodesInGroup = %v", nodes)
	}
}

func TestSerialChainMakespan(t *testing.T) {
	s := chainSpec()
	r := noColdRunner(t, s, 96)
	res, err := r.Evaluate(s.Base)
	if err != nil {
		t.Fatal(err)
	}
	// Serial profiles at >=1 vCPU: 1000 + 2000 + 3000.
	if !within(res.E2EMS, 6000, 1e-6) {
		t.Errorf("E2E = %v, want 6000", res.E2EMS)
	}
	if res.OOM || res.Fail != "" {
		t.Errorf("unexpected failure: %+v", res)
	}
	// Node timing bookkeeping.
	b := res.Node("b")
	if !within(b.StartMS, 1000, 1e-6) || !within(b.FinishMS, 3000, 1e-6) {
		t.Errorf("b timing = %+v", b)
	}
	// Cost equals the sum of node costs.
	var sum float64
	for _, nr := range res.Nodes {
		sum += nr.Cost
	}
	if !within(res.Cost, sum, 1e-6) {
		t.Errorf("Cost %v != node sum %v", res.Cost, sum)
	}
	// cost = t * (0.512*2 + 0.001*1024) for each node, t totals 6000.
	wantCost := 6000 * (0.512*2 + 0.001*1024)
	if !within(res.Cost, wantCost, 1e-6) {
		t.Errorf("Cost = %v, want %v", res.Cost, wantCost)
	}
}

func TestParallelMakespan(t *testing.T) {
	s := fanSpec()
	r := noColdRunner(t, s, 96)
	res, err := r.Evaluate(s.Base)
	if err != nil {
		t.Fatal(err)
	}
	// s(1000) + max(p1, p2)(4000) + t(1000).
	if !within(res.E2EMS, 6000, 1e-6) {
		t.Errorf("E2E = %v, want 6000 (parallel branches overlap)", res.E2EMS)
	}
	p1, p2 := res.Node("p1"), res.Node("p2")
	if !within(p1.StartMS, p2.StartMS, 1e-6) {
		t.Error("parallel branches should start together")
	}
	// Both instances are billed: cost covers 1000+4000+4000+1000 node-ms.
	wantCost := 10000 * (0.512*1 + 0.001*512)
	if !within(res.Cost, wantCost, 1e-6) {
		t.Errorf("Cost = %v, want %v", res.Cost, wantCost)
	}
}

func TestContentionStretch(t *testing.T) {
	s := fanSpec()
	// Two parallel 4-core branches on a 4-core host: they get 2 cores'
	// worth of rate each -> the parallel stage takes twice as long.
	for g := range s.Base {
		s.Base[g] = resources.Config{CPU: 4, MemMB: 512}
	}
	r := noColdRunner(t, s, 4)
	res, err := r.Evaluate(s.Base)
	if err != nil {
		t.Fatal(err)
	}
	// Profiles are serial, so 4 vCPU runs at speed 1: work 4000ms each.
	// With processor sharing at rate 0.5, the stage takes 8000ms.
	want := 1000 + 8000 + 1000
	if !within(res.E2EMS, float64(want), 1) {
		t.Errorf("contended E2E = %v, want ~%v", res.E2EMS, want)
	}
	// Billed durations stretch too.
	if res.Node("p1").RuntimeMS < 7999 {
		t.Errorf("stretched runtime = %v", res.Node("p1").RuntimeMS)
	}

	// Without contention (96 cores) the same assignment is faster.
	r2 := noColdRunner(t, s, 96)
	res2, _ := r2.Evaluate(s.Base)
	if res2.E2EMS >= res.E2EMS {
		t.Errorf("uncontended %v should beat contended %v", res2.E2EMS, res.E2EMS)
	}
}

func TestOOMAbort(t *testing.T) {
	s := chainSpec()
	a := s.Base.Clone()
	a["b"] = resources.Config{CPU: 2, MemMB: 128} // OOM floor of b is 128? floor=128 -> below footprint... MinMemMB=128 so 127 would OOM; use below floor
	a["b"] = resources.Config{CPU: 2, MemMB: 100}
	// Memory 100 is outside DefaultLimits (min 128) but Evaluate does not
	// clamp: searchers are responsible for staying in-grid. The profile OOMs.
	r := noColdRunner(t, s, 96)
	res, err := r.Evaluate(a)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM || res.Fail != "b" {
		t.Fatalf("expected OOM at b: %+v", res)
	}
	if !res.Node("c").Skipped {
		t.Error("downstream node c should be skipped")
	}
	if res.Node("a").Skipped || res.Node("a").RuntimeMS == 0 {
		t.Error("upstream node a should have completed")
	}
	if res.E2EMS <= 0 || res.Cost <= 0 {
		t.Error("aborted run still consumes time and money")
	}
}

func TestEvaluateErrors(t *testing.T) {
	s := chainSpec()
	r := noColdRunner(t, s, 96)
	if _, err := r.Evaluate(resources.Assignment{"a": s.Base["a"]}); err == nil {
		t.Error("missing group should error")
	}
	bad := s.Base.Clone()
	bad["a"] = resources.Config{}
	if _, err := r.Evaluate(bad); err == nil {
		t.Error("invalid config should error")
	}
}

func TestNoiseDeterminism(t *testing.T) {
	s := chainSpec()
	for id, p := range s.Profiles {
		p.NoiseStd = 0.05
		s.Profiles[id] = p
	}
	r1, err := NewRunner(s, RunnerOptions{HostCores: 96, Noise: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(s, RunnerOptions{HostCores: 96, Noise: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := r1.Evaluate(s.Base)
	b, _ := r2.Evaluate(s.Base)
	if a.E2EMS != b.E2EMS || a.Cost != b.Cost {
		t.Error("same seed should reproduce identical results")
	}
	r3, _ := NewRunner(s, RunnerOptions{HostCores: 96, Noise: true, Seed: 10})
	c, _ := r3.Evaluate(s.Base)
	if c.E2EMS == a.E2EMS {
		t.Error("different seeds should differ (with overwhelming probability)")
	}
}

func TestMeanEvaluateIgnoresNoise(t *testing.T) {
	s := chainSpec()
	for id, p := range s.Profiles {
		p.NoiseStd = 0.05
		s.Profiles[id] = p
	}
	r, err := NewRunner(s, RunnerOptions{HostCores: 96, Noise: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r.MeanEvaluate(s.Base) // warm the containers: the first run pays cold starts
	m1, _ := r.MeanEvaluate(s.Base)
	m2, _ := r.MeanEvaluate(s.Base)
	if m1.E2EMS != m2.E2EMS {
		t.Error("MeanEvaluate should be deterministic once warm")
	}
	// Noise mode is restored afterwards.
	n1, _ := r.Evaluate(s.Base)
	n2, _ := r.Evaluate(s.Base)
	if n1.E2EMS == n2.E2EMS {
		t.Error("noise should be active again after MeanEvaluate")
	}
}

func TestEvaluatorInterface(t *testing.T) {
	s := fanSpec()
	r := noColdRunner(t, s, 96)
	if got := r.Functions(); len(got) != 3 {
		t.Errorf("Functions = %v", got)
	}
	if r.Limits() != s.Limits {
		t.Error("Limits mismatch")
	}
	base := r.Base()
	base["s"] = resources.Config{CPU: 9, MemMB: 9999}
	if s.Base["s"].CPU == 9 {
		t.Error("Base must return a clone")
	}
	if r.SLOMS() != s.SLOMS {
		t.Error("SLOMS mismatch")
	}
	if r.Graph() != s.G {
		t.Error("Graph accessor mismatch")
	}
	if r.GroupOf("p2") != "p" {
		t.Error("GroupOf accessor mismatch")
	}
}

func TestGroupCostAndWeights(t *testing.T) {
	s := fanSpec()
	r := noColdRunner(t, s, 96)
	res, _ := r.Evaluate(s.Base)
	pCost := 0.0
	for _, nr := range res.Nodes {
		if nr.Group == "p" {
			pCost += nr.Cost
		}
	}
	if !within(pCost, res.Node("p1").Cost+res.Node("p2").Cost, 1e-9) {
		t.Errorf("group p cost = %v", pCost)
	}
	w := res.NodeWeights()
	if len(w) != 4 || w["p1"] <= 0 {
		t.Errorf("NodeWeights = %v", w)
	}
	if got := res.PathRuntimeMS([]string{"s", "p1", "t"}); !within(got, 6000, 1e-6) {
		t.Errorf("PathRuntimeMS = %v", got)
	}
}

func TestColdStartAppearsOnce(t *testing.T) {
	s := chainSpec()
	r, err := NewRunner(s, RunnerOptions{HostCores: 96})
	if err != nil {
		t.Fatal(err)
	}
	res1, _ := r.Evaluate(s.Base)
	res2, _ := r.Evaluate(s.Base)
	if res1.Node("a").ColdStartMS == 0 {
		t.Error("first run should be cold")
	}
	if res2.Node("a").ColdStartMS != 0 {
		t.Error("second identical run should be warm")
	}
	if res2.E2EMS >= res1.E2EMS {
		t.Error("warm run should be faster")
	}
}

func TestValidateMessageQuality(t *testing.T) {
	s := chainSpec()
	delete(s.Profiles, "b")
	err := s.Validate()
	if err == nil || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("error should name the node: %v", err)
	}
}

func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}
