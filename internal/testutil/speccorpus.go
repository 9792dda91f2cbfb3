package testutil

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// OddNames are strings the canonical encoding must escape exactly as
// encoding/json does: HTML-significant bytes, a quote and a backslash,
// U+2028, a control byte, non-ASCII text and invalid UTF-8.
var OddNames = []string{`<a>&"b\`, "line\u2028sep", "ctl\x01", "caf\u00e9", "bad\xff\xfeutf8"}

// OddNameSpec is a two-function chain whose workflow name, node IDs and
// group name all carry s.
func OddNameSpec(s string) *workflow.Spec {
	in, out := "in"+s, s+"out"
	g := dag.New()
	g.MustAddNode(in)
	g.MustAddNode(out)
	g.MustAddEdge(in, out)
	prof := perfmodel.Profile{CPUWorkMS: 2000, ParallelFrac: 0.5, MaxParallel: 4,
		FootprintMB: 256, MinMemMB: 128, PressureK: 1}
	pin, pout := prof, prof
	pin.Name, pout.Name = in, out
	spec := &workflow.Spec{
		Name:     s,
		G:        g,
		Profiles: map[string]perfmodel.Profile{in: pin, out: pout},
		Groups:   map[string]string{out: "grp" + s},
		SLOMS:    60_000,
		Limits:   resources.DefaultLimits(),
	}
	spec.Base = resources.Uniform(spec.FunctionGroups(), resources.Config{CPU: 2, MemMB: 1024})
	return spec
}

// OneNodeSpec is a single-function workflow: no edges at all.
func OneNodeSpec() *workflow.Spec {
	g := dag.New()
	g.MustAddNode("solo")
	spec := &workflow.Spec{
		Name: "solo",
		G:    g,
		Profiles: map[string]perfmodel.Profile{"solo": {Name: "solo", CPUWorkMS: 1000,
			ParallelFrac: 0.25, FootprintMB: 256, MinMemMB: 128}},
		SLOMS:  10_000,
		Limits: resources.DefaultLimits(),
	}
	spec.Base = resources.Uniform(spec.FunctionGroups(), resources.Config{CPU: 1, MemMB: 512})
	return spec
}

// OOMSpec is OneNodeSpec with its memory floor raised above the 512 MB base
// memory, so the base configuration is OOM-killed and AARC refuses the spec.
func OOMSpec() *workflow.Spec {
	spec := OneNodeSpec()
	p := spec.Profiles["solo"]
	p.MinMemMB, p.FootprintMB = 1024, 2048
	spec.Profiles["solo"] = p
	return spec
}

// ScaleSpec generates a workloads.Scale spec or fails the test.
func ScaleSpec(t testing.TB, topo workloads.Topology, nodes int, seed uint64) *workflow.Spec {
	t.Helper()
	spec, err := workloads.Scale(workloads.ScaleOptions{Topology: topo, Nodes: nodes, Seed: seed})
	if err != nil {
		t.Fatalf("scale %s/%d/%d: %v", topo, nodes, seed, err)
	}
	return spec
}

// DecodeCorpus is the set of specs the spec-reading tests seed from: the
// three paper workloads, the shipped example, a one-node spec, every
// OddNames spec and every Scale family at 8 and 16 nodes. The example is
// read relative to the calling test's package, two directories below the
// module root.
func DecodeCorpus(t testing.TB) []*workflow.Spec {
	t.Helper()
	specs := workloads.All()
	example, err := workflow.LoadSpec("../../examples/specs/loganalytics.json")
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, example, OneNodeSpec())
	for _, s := range OddNames {
		specs = append(specs, OddNameSpec(s))
	}
	for _, topo := range workloads.Topologies() {
		for _, n := range []int{8, 16} {
			specs = append(specs, ScaleSpec(t, topo, n, 1))
		}
	}
	return specs
}

// EncodeSpec renders spec in the DecodeSpec format or fails the test.
func EncodeSpec(t testing.TB, spec *workflow.Spec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := workflow.EncodeSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// SpecVariants returns an EncodeSpec rendering b, its compact form, and
// variants encoding/json reads but a strict reader must leave to it: an
// escaped key, a key in another case, a repeated key, a null member and
// trailing bytes.
func SpecVariants(b []byte) [][]byte {
	var compact bytes.Buffer
	if err := json.Compact(&compact, b); err != nil {
		return [][]byte{b}
	}
	c := compact.String()
	return [][]byte{
		b,
		compact.Bytes(),
		[]byte(strings.Replace(c, `"slo_ms"`, `"slo\u005fms"`, 1)),
		[]byte(strings.Replace(c, `"nodes"`, `"NODES"`, 1)),
		[]byte(strings.Replace(c, `"profile"`, `"Profile"`, 1)),
		[]byte(`{"name":"dup",` + c[1:]),
		[]byte(`{"limits":null,` + c[1:]),
		[]byte(c + " {}"),
		[]byte(c + "x"),
	}
}
