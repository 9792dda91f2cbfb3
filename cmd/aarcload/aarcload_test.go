package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"

	"aarc"
)

// benchmarkMetrics reads the metric names the repository's BENCHMARK.json
// promises.
func benchmarkMetrics(t *testing.T) (e2e, layers []string) {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bench.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

// TestSmoke runs every workload untraced and traced, with 1 s of phases
// and small fixtures, and checks that each run passes every check and
// emits every metric BENCHMARK.json names for its mode, the end-to-end
// ones nonzero.
func TestSmoke(t *testing.T) {
	e2e, layers := benchmarkMetrics(t)
	for _, w := range allWorkloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "-traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(runOptions{workload: w.name, seed: 1, seconds: 1, trace: traced, sz: smallSizes})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%d of %d checks failed: %v", res.Failed, res.Attempted, res.Failures)
				}
				want, got := e2e, res.E2E
				if traced {
					want, got = layers, res.Layers
				}
				for _, name := range want {
					i := slices.IndexFunc(got, func(m metric) bool { return m.name == name })
					switch {
					case i < 0:
						t.Errorf("metric %s not emitted", name)
					case !traced && !(got[i].value > 0):
						t.Errorf("metric %s = %v, want > 0", name, got[i].value)
					}
				}
			})
		}
	}
}

// describe renders a request as what goes on the wire, with a DELETE's
// target named by its ordinal.
func describe(r *request) string {
	target := -1
	if r.target != nil {
		target = r.target.n
	}
	return fmt.Sprintf("%s %s %x runs=%d target=%d", r.op.method(), r.path, sha256.Sum256(r.body), r.runs, target)
}

// generate builds a workload's inputs for seed and returns its due times
// and the first n requests of its stream, described.
func generate(t *testing.T, w workload, seed uint64, n int) ([]string, []string) {
	t.Helper()
	tr := w.newTraffic(seed, smallSizes)
	if err := tr.build(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	svc, err := aarc.NewService(serviceOptions(w.cacheSize)...)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := tr.prime(svc); err != nil {
		t.Fatal(err)
	}
	warmDue, openDue := schedule(seed, w.rate, 1e9, 2e9)
	var due []string
	for _, d := range append(warmDue, openDue...) {
		due = append(due, d.String())
	}
	reqs, err := draw(tr, n)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range reqs {
		out = append(out, describe(r))
	}
	return due, out
}

// TestSameSeedSameRequests checks that a seed alone fixes every request
// and every due time, and that another seed changes them.
func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			due1, reqs1 := generate(t, w, 7, 60)
			due2, reqs2 := generate(t, w, 7, 60)
			if !slices.Equal(due1, due2) {
				t.Error("due times differ for the same seed")
			}
			if !slices.Equal(reqs1, reqs2) {
				t.Error("requests differ for the same seed")
			}
			due3, reqs3 := generate(t, w, 8, 60)
			if slices.Equal(due1, due3) || slices.Equal(reqs1, reqs3) {
				t.Error("another seed draws the same traffic")
			}
		})
	}
}

// flipOneByte flips one bit in the first byte of every response body,
// copying it first: the service hands out its stored bytes.
type flipOneByte struct {
	http.ResponseWriter
	done bool
}

func (f *flipOneByte) Write(b []byte) (int, error) {
	if f.done || len(b) == 0 {
		return f.ResponseWriter.Write(b)
	}
	f.done = true
	c := slices.Clone(b)
	c[0] ^= 0x20
	return f.ResponseWriter.Write(c)
}

// TestFlippedByteIsAFailure checks that a served body one byte off the
// fixture counts as a failed check.
func TestFlippedByteIsAFailure(t *testing.T) {
	wrap := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/recommendation/") {
				w = &flipOneByte{ResponseWriter: w}
			}
			next.ServeHTTP(w, r)
		})
	}
	res, err := runWorkload(runOptions{workload: "hit-repeat", seed: 1, seconds: 0.5, sz: smallSizes, wrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Fatalf("no failure counted among %d checks", res.Attempted)
	}
	if !strings.Contains(strings.Join(res.Failures, "\n"), "differs from the bytes") {
		t.Errorf("failures do not name the byte mismatch: %v", res.Failures)
	}
}
