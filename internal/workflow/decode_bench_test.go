package workflow_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"aarc/internal/testutil"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// benchSizes are the spec sizes aarcload's quality set and cold-unique
// workload draw from.
var benchSizes = []int{8, 16, 32, 64}

// BenchmarkDecodeSpec reads a layered Scale spec, compacted as aarcload
// sends it, through DecodeSpec: the strict reader, the graph build and
// Validate.
//
//	go test -run '^$' -bench 'DecodeSpec|CanonicalJSON' -benchmem ./internal/workflow
func BenchmarkDecodeSpec(b *testing.B) {
	for _, n := range benchSizes {
		spec := testutil.ScaleSpec(b, workloads.TopologyLayered, n, 1)
		var compact bytes.Buffer
		if err := json.Compact(&compact, testutil.EncodeSpec(b, spec)); err != nil {
			b.Fatal(err)
		}
		body := compact.Bytes()
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := workflow.DecodeSpec(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCanonicalJSON writes the canonical encoding of the same specs:
// Validate, then the writer.
func BenchmarkCanonicalJSON(b *testing.B) {
	for _, n := range benchSizes {
		spec := testutil.ScaleSpec(b, workloads.TopologyLayered, n, 1)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := workflow.CanonicalJSON(spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
