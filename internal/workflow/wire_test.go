package workflow_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"testing"

	"aarc/internal/testutil"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// shuffled returns b, a definition in the DecodeSpec format, compact and
// with its nodes and edges in a random order.
func shuffled(t *testing.T, b []byte, rng *rand.Rand) []byte {
	t.Helper()
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	for _, member := range []string{"nodes", "edges"} {
		var items []json.RawMessage
		if err := json.Unmarshal(doc[member], &items); err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		var err error
		if doc[member], err = json.Marshal(items); err != nil {
			t.Fatal(err)
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDocCanonicalJSONMatchesSpec is the wire lookup's effectiveness
// check: every paper workload, the shipped example, a one-node spec and
// every Scale family at 8-64 nodes, sent as EncodeSpec writes it with
// its nodes and edges shuffled, compact and indented, writes the
// canonical bytes of the spec it builds. So a repeated configure of any
// of them is found by its wire bytes, without building it.
func TestDocCanonicalJSONMatchesSpec(t *testing.T) {
	specs := workloads.All()
	example, err := workflow.LoadSpec("../../examples/specs/loganalytics.json")
	if err != nil {
		t.Fatal(err)
	}
	specs = append(specs, example, testutil.OneNodeSpec())
	for _, topo := range workloads.Topologies() {
		for _, n := range []int{8, 16, 32, 64} {
			for seed := uint64(1); seed <= 2; seed++ {
				specs = append(specs, testutil.ScaleSpec(t, topo, n, seed))
			}
		}
	}
	rng := rand.New(rand.NewPCG(7, 32))
	for _, spec := range specs {
		want, err := workflow.CanonicalJSON(spec)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			compact := shuffled(t, testutil.EncodeSpec(t, spec), rng)
			var indented bytes.Buffer
			if err := json.Indent(&indented, compact, "", "  "); err != nil {
				t.Fatal(err)
			}
			for layout, body := range map[string][]byte{"compact": compact, "indented": indented.Bytes()} {
				name := fmt.Sprintf("%s, round %d, %s", spec.Name, round, layout)
				got, d, ok := workflow.WireCanonicalJSON(body)
				if !ok {
					t.Fatalf("%s: the strict reader declined:\n%s", name, body)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: wire bytes differ from CanonicalJSON:\n got %s\nwant %s", name, got, want)
				}
				built, err := d.Spec()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if c, err := workflow.CanonicalJSON(built); err != nil || !bytes.Equal(c, want) {
					t.Fatalf("%s: the document builds to other canonical bytes (%v):\n%s", name, err, c)
				}
			}
		}
	}
}

// FuzzDocCanonicalJSON is the wire lookup's soundness oracle. For any
// body the strict reader accepts, call the canonical bytes its document
// writes W. Whenever W is a valid spec's canonical JSON (it decodes with
// DecodeCanonicalSpec and canonicalizes back to itself), the document
// must build, to a spec whose canonical JSON is W. The service's store
// holds only keys hashed over valid specs' canonical JSON, so a key
// hashed over W that it holds names the spec the document builds.
func FuzzDocCanonicalJSON(f *testing.F) {
	f.Add(workflow.SampleSpecJSON)
	profile := `"profile":{"cpu_work_ms":100,"parallel_frac":0.5,"footprint_mb":256,"min_mem_mb":128}`
	for _, nodes := range []string{
		`{"id":"a","group":"a",` + profile + `}`,
		`{"id":"a","group":"",` + profile + `}`,
		`{"id":"a",` + profile + `},{"id":"b","group":"a",` + profile + `}`,
		`{"id":"a",` + profile + `},{"id":"a",` + profile + `}`,
		`{"id":"a","profile":{"cpu_work_ms":100,"parallel_frac":0,"max_parallel":0,"io_ms":-0,"footprint_mb":256,"min_mem_mb":128,"input_sensitive":false}}`,
		`{"id":"a","profile":{"cpu_work_ms":1e2,"parallel_frac":0.50,"footprint_mb":256.0,"min_mem_mb":128}}`,
		`{"id":"a","profile":{"cpu_work_ms":1e400,"footprint_mb":256,"min_mem_mb":128}}`,
	} {
		for _, tail := range []string{
			`,"edges":[],"base":{"cpu":1,"mem_mb":512}`,
			`,"base":{"cpu":1,"mem_mb":512},"limits":{"min_cpu":0.25,"max_cpu":10,"cpu_step":0.05,"min_mem_mb":128,"max_mem_mb":10240,"mem_step_mb":64}`,
			`,"edges":[["a","b"],["a","b"]],"base":{"cpu":1}`,
		} {
			f.Add(`{"name":"x","slo_ms":1000,"nodes":[` + nodes + `]` + tail + `}`)
		}
	}
	for _, spec := range testutil.DecodeCorpus(f) {
		for _, v := range testutil.SpecVariants(testutil.EncodeSpec(f, spec)) {
			f.Add(string(v))
		}
	}

	f.Fuzz(func(t *testing.T, input string) {
		w, d, ok := workflow.WireCanonicalJSON([]byte(input))
		if !ok {
			return
		}
		spec, err := workflow.DecodeCanonicalSpec(w)
		if err != nil {
			return
		}
		if c, err := workflow.CanonicalJSON(spec); err != nil || !bytes.Equal(c, w) {
			return
		}
		built, err := d.Spec()
		if err != nil {
			t.Fatalf("the wire bytes are a valid spec's canonical JSON, but the document does not build (%v):\n%s\nwire %s", err, input, w)
		}
		if c, err := workflow.CanonicalJSON(built); err != nil || !bytes.Equal(c, w) {
			t.Fatalf("the document builds to other canonical bytes (%v):\n%s\nwire  %s\nbuilt %s", err, input, w, c)
		}
	})
}
