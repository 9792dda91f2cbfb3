package workflow_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"aarc/internal/testutil"
	"aarc/internal/workflow"
)

// FuzzDecodeSpec asserts DecodeSpec never panics on arbitrary input, that
// any successfully decoded spec validates, is executable, survives an
// encode/decode round trip and canonicalizes to json.Marshal's bytes, and
// that the strict reader never disagrees with encoding/json: whatever it
// accepts, encoding/json accepts too, with a deep-equal document that
// builds to the same spec or fails the same way.
func FuzzDecodeSpec(f *testing.F) {
	f.Add(workflow.SampleSpecJSON)
	f.Add(`{}`)
	f.Add(`{"name":"x"}`)
	f.Add(`not json at all`)
	f.Add(`{"name":"x","slo_ms":1000,"nodes":[],"edges":[],"base":{"cpu":1,"mem_mb":512}}`)
	f.Add(`{"name":"x","slo_ms":1e308,"nodes":[{"id":"a","profile":{"footprint_mb":256,"min_mem_mb":128}}],"edges":[],"base":{"cpu":1,"mem_mb":512}}`)
	f.Add(`{"name":"x","slo_ms":-0.5e-7,"nodes":[{"id":"a","profile":{"footprint_mb":1E+2,"min_mem_mb":0}}],"edges":null}`)
	for _, spec := range testutil.DecodeCorpus(f) {
		for _, v := range testutil.SpecVariants(testutil.EncodeSpec(f, spec)) {
			f.Add(string(v))
		}
	}

	f.Fuzz(func(t *testing.T, input string) {
		if strict, ok := workflow.StrictDoc([]byte(input)); ok {
			std, err := workflow.EncodingJSONDoc([]byte(input))
			if err != nil {
				t.Fatalf("strict reader accepted what encoding/json refuses (%v): %q", err, input)
			}
			if !reflect.DeepEqual(strict, std) {
				t.Fatalf("strict reader and encoding/json disagree on %q:\n%+v\n%+v", input, *strict, *std)
			}
			s1, err1 := strict.Spec()
			s2, err2 := std.Spec()
			if (err1 == nil) != (err2 == nil) || err1 != nil && err1.Error() != err2.Error() {
				t.Fatalf("building the same document failed differently: %v vs %v", err1, err2)
			}
			if err1 == nil {
				c1, _ := workflow.CanonicalJSON(s1)
				c2, _ := workflow.CanonicalJSON(s2)
				if !bytes.Equal(c1, c2) {
					t.Fatalf("the same document canonicalized differently:\n%s\n%s", c1, c2)
				}
			}
		}

		spec, err := workflow.DecodeSpec(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("DecodeSpec returned an invalid spec: %v", err)
		}
		canon, err := workflow.CanonicalJSON(spec)
		want, werr := workflow.MarshalCanonical(spec)
		if !bytes.Equal(canon, want) || (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("CanonicalJSON = %s, %v; json.Marshal gives %s, %v", canon, err, want, werr)
		}
		var buf bytes.Buffer
		if err := workflow.EncodeSpec(&buf, spec); err != nil {
			t.Fatalf("valid spec failed to encode: %v", err)
		}
		back, err := workflow.DecodeSpec(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v\n%s", err, buf.String())
		}
		if back.G.NumNodes() != spec.G.NumNodes() || back.G.NumEdges() != spec.G.NumEdges() {
			t.Fatal("round trip changed the graph")
		}
	})
}
