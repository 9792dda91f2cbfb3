package workflow

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"aarc/internal/resources"
)

const sampleSpecJSON = `{
  "name": "etl",
  "slo_ms": 60000,
  "nodes": [
    {"id": "in",  "profile": {"cpu_work_ms": 1000, "parallel_frac": 0, "footprint_mb": 256, "min_mem_mb": 128}},
    {"id": "w1",  "group": "work", "profile": {"cpu_work_ms": 8000, "parallel_frac": 0.5, "max_parallel": 8, "footprint_mb": 512, "min_mem_mb": 256}},
    {"id": "w2",  "group": "work", "profile": {"cpu_work_ms": 8000, "parallel_frac": 0.5, "max_parallel": 8, "footprint_mb": 512, "min_mem_mb": 256}},
    {"id": "out", "profile": {"cpu_work_ms": 500, "parallel_frac": 0, "footprint_mb": 256, "min_mem_mb": 128}}
  ],
  "edges": [["in","w1"],["in","w2"],["w1","out"],["w2","out"]],
  "base": {"cpu": 4, "mem_mb": 2048}
}`

func TestDecodeSpec(t *testing.T) {
	spec, err := DecodeSpec(strings.NewReader(sampleSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "etl" || spec.SLOMS != 60000 {
		t.Errorf("header: %s %v", spec.Name, spec.SLOMS)
	}
	if spec.G.NumNodes() != 4 || spec.G.NumEdges() != 4 {
		t.Errorf("graph: %d nodes %d edges", spec.G.NumNodes(), spec.G.NumEdges())
	}
	groups := spec.FunctionGroups()
	if len(groups) != 3 {
		t.Errorf("groups = %v, want in/out/work", groups)
	}
	if spec.GroupOf("w2") != "work" {
		t.Error("group mapping lost")
	}
	// Default limits apply when omitted.
	if spec.Limits != resources.DefaultLimits() {
		t.Errorf("limits = %+v", spec.Limits)
	}
	// The decoded spec is executable.
	r, err := NewRunner(spec, RunnerOptions{HostCores: 96})
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Evaluate(spec.Base)
	if err != nil {
		t.Fatal(err)
	}
	if res.E2EMS <= 0 {
		t.Error("decoded spec should execute")
	}
}

func TestDecodeSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"syntax", `{"name": }`},
		{"unknown field", `{"name":"x","bogus":1}`},
		{"duplicate node", `{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}},{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[],"base":{"cpu":1,"mem_mb":512}}`},
		{"unknown edge endpoint", `{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[["a","zz"]],"base":{"cpu":1,"mem_mb":512}}`},
		{"missing slo", `{"name":"x","nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[],"base":{"cpu":1,"mem_mb":512}}`},
		{"invalid base", `{"name":"x","slo_ms":1000,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[],"base":{"cpu":0,"mem_mb":0}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecodeSpec(strings.NewReader(c.json)); err == nil {
				t.Errorf("expected error for %s", c.name)
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	spec, err := DecodeSpec(strings.NewReader(sampleSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpec(&buf)
	if err != nil {
		t.Fatalf("re-decode: %v\n%s", err, buf.String())
	}
	if back.Name != spec.Name || back.SLOMS != spec.SLOMS {
		t.Error("header lost in round trip")
	}
	if back.G.NumNodes() != spec.G.NumNodes() || back.G.NumEdges() != spec.G.NumEdges() {
		t.Error("graph lost in round trip")
	}
	if back.GroupOf("w1") != "work" {
		t.Error("groups lost in round trip")
	}
	for _, id := range spec.G.Nodes() {
		if back.Profiles[id] != spec.Profiles[id] {
			t.Errorf("profile %s changed: %+v vs %+v", id, back.Profiles[id], spec.Profiles[id])
		}
	}
}

func TestEncodeSpecRejectsInvalid(t *testing.T) {
	spec, _ := DecodeSpec(strings.NewReader(sampleSpecJSON))
	spec.SLOMS = 0
	var buf bytes.Buffer
	if err := EncodeSpec(&buf, spec); err == nil {
		t.Error("invalid spec should not encode")
	}
}

// TestStrictKeysMatchTags holds the strict reader's member names to the
// json tags of the structs encoding/json decodes the same documents into.
func TestStrictKeysMatchTags(t *testing.T) {
	for _, c := range []struct {
		v    any
		keys []string
	}{
		{specJSON{}, specKeys},
		{nodeJSON{}, nodeKeys},
		{profileJSON{}, profileKeys},
		{configJSON{}, configKeys},
		{limitsJSON{}, limitsKeys},
	} {
		typ := reflect.TypeOf(c.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			tags = append(tags, strings.Split(typ.Field(i).Tag.Get("json"), ",")[0])
		}
		if !reflect.DeepEqual(tags, c.keys) {
			t.Errorf("%s: strict reader keys %v, json tags %v", typ.Name(), c.keys, tags)
		}
	}
}
