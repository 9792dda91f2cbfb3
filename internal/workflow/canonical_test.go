package workflow_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"aarc/internal/testutil"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// TestCanonicalJSONMatchesMarshal holds the canonical writer to its oracle,
// json.Marshal of the canonicalSpec it describes, on every spec shape the
// service canonicalizes and on the values where encoding/json's output is
// easiest to get wrong: escaped names, float format boundaries, an edgeless
// spec, and the non-finite floats json.Marshal refuses.
func TestCanonicalJSONMatchesMarshal(t *testing.T) {
	type named struct {
		name string
		spec *workflow.Spec
	}
	var cases []named
	for _, spec := range testutil.DecodeCorpus(t) {
		cases = append(cases, named{fmt.Sprintf("corpus/%q", spec.Name), spec})
	}
	for _, topo := range workloads.Topologies() {
		for _, n := range []int{8, 16, 32, 64, 128} {
			for seed := uint64(1); seed <= 3; seed++ {
				cases = append(cases, named{fmt.Sprintf("scale/%s/%d/%d", topo, n, seed), testutil.ScaleSpec(t, topo, n, seed)})
			}
		}
	}
	for _, v := range []float64{math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, 1.7976931348623157e308} {
		spec := testutil.OneNodeSpec()
		p := spec.Profiles["solo"]
		p.CPUWorkMS, p.IOMS, p.MaxParallel, p.PressureK = v, v, v, v
		p.FootprintMB, p.MinMemMB = v, v
		spec.Profiles["solo"] = p
		if v > 0 {
			spec.SLOMS = v
		}
		cases = append(cases, named{fmt.Sprintf("float/%g", v), spec})
	}

	for _, c := range cases {
		got, err := workflow.CanonicalJSON(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := workflow.MarshalCanonical(c.spec)
		if err != nil {
			t.Fatalf("%s: oracle: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: CanonicalJSON differs from json.Marshal:\n got %s\nwant %s", c.name, got, want)
		}
	}

	nonFinite := map[string]func(*workflow.Spec){
		"NaN SLO":        func(s *workflow.Spec) { s.SLOMS = math.NaN() },
		"+Inf SLO":       func(s *workflow.Spec) { s.SLOMS = math.Inf(1) },
		"-Inf SLO":       func(s *workflow.Spec) { s.SLOMS = math.Inf(-1) },
		"NaN work":       func(s *workflow.Spec) { p := s.Profiles["solo"]; p.CPUWorkMS = math.NaN(); s.Profiles["solo"] = p },
		"+Inf omitempty": func(s *workflow.Spec) { p := s.Profiles["solo"]; p.PressureK = math.Inf(1); s.Profiles["solo"] = p },
		"NaN limit":      func(s *workflow.Spec) { s.Limits.MaxMemMB = math.NaN() },
	}
	for name, mutate := range nonFinite {
		spec := testutil.OneNodeSpec()
		mutate(spec)
		got, err := workflow.CanonicalJSON(spec)
		_, werr := workflow.MarshalCanonical(spec)
		if err == nil || werr == nil || err.Error() != werr.Error() || got != nil {
			t.Errorf("%s: CanonicalJSON = %q, %v; json.Marshal's error is %v", name, got, err, werr)
		}
	}
}
