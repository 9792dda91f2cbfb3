package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/workflow"
	"aarc/internal/workloads"

	// Self-registration of every built-in method.
	_ "aarc/internal/baselines/bo"
	_ "aarc/internal/baselines/maff"
	_ "aarc/internal/baselines/naive"
)

// searchTraceDigest is the SHA-256 of every digestCases trace. It pins the
// searches bit for bit: a change under the algorithm (result layout,
// simulator state, detour ordering, summation order) that alters any
// sample — its runtime or cost by one ulp, its note, its assignment — or
// the final result changes it. A change that is meant to alter the search
// bumps the method's registered version and re-records this constant.
const searchTraceDigest = "5315faf08bebb92f4cf58be514d1eea9be1c2ec91ba1b4113f8519abe12b382d"

// digestCase is one search whose outcome feeds the digest.
type digestCase struct {
	name   string
	method string
	spec   *workflow.Spec
	noise  bool
	seed   uint64
}

// digestCases lists the searches the digest covers: AARC on every Scale
// family at five sizes and four seeds; AARC on the serving benchmark's
// quality set (cmd/aarcload's referenceBodies recipe: 40 specs, families
// round robin, 8 to 64 nodes, drawn from PCG(0x5eed, 0x4ef)) with the
// daemon's runner options; and every registered method on the three paper
// workloads, with noise on and off.
func digestCases(t *testing.T) []digestCase {
	t.Helper()
	var cases []digestCase
	scale := func(topo workloads.Topology, nodes int, seed uint64) *workflow.Spec {
		spec, err := workloads.Scale(workloads.ScaleOptions{Topology: topo, Nodes: nodes, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	for _, topo := range workloads.Topologies() {
		for _, nodes := range []int{12, 33, 47, 72, 80} {
			for seed := uint64(1); seed <= 4; seed++ {
				cases = append(cases, digestCase{
					name:   fmt.Sprintf("scale/%s/%d/%d", topo, nodes, seed),
					method: "aarc", spec: scale(topo, nodes, seed), noise: true, seed: seed,
				})
			}
		}
	}
	rng := rand.New(rand.NewPCG(0x5eed, 0x4ef))
	topos := workloads.Topologies()
	for i := 0; i < 40; i++ {
		nodes := 8 * (1 + (i/len(topos))%8)
		cases = append(cases, digestCase{
			name:   fmt.Sprintf("quality/%d", i),
			method: "aarc", spec: scale(topos[i%len(topos)], nodes, rng.Uint64()), noise: true, seed: 42,
		})
	}
	for _, method := range search.Methods() {
		for _, spec := range workloads.All() {
			for _, noise := range []bool{false, true} {
				cases = append(cases, digestCase{
					name:   fmt.Sprintf("paper/%s/%s/noise=%v", method, spec.Name, noise),
					method: method, spec: spec, noise: noise, seed: 7,
				})
			}
		}
	}
	return cases
}

// TestSearchTraceDigest runs every digest case and compares the hash of
// their traces and final results with the recorded constant.
func TestSearchTraceDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 170 searches")
	}
	h := sha256.New()
	for _, c := range digestCases(t) {
		runner, err := workflow.NewRunner(c.spec, workflow.RunnerOptions{HostCores: 96, Noise: c.noise, Seed: c.seed})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		searcher, err := search.New(c.method, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		// A search may fail by design (AARC rejects a base configuration
		// that misses the SLO); its error and partial outcome are hashed too.
		out, err := searcher.Search(context.Background(), runner, search.Options{SLOMS: c.spec.SLOMS})
		fmt.Fprintf(h, "case %s err %v\n", c.name, err)
		if out.Trace == nil {
			continue
		}
		for _, s := range out.Trace.Samples {
			fmt.Fprintf(h, "%s|%t|%t|", s.Note, s.OOM, s.Accepted)
			writeBits(h, s.E2EMS, s.Cost)
			writeAssignment(h, s.Assignment)
		}
		fmt.Fprintf(h, "best ")
		writeAssignment(h, out.Best)
		f := out.Final
		fmt.Fprintf(h, "final %t %q ", f.OOM, f.Fail)
		writeBits(h, f.E2EMS, f.Cost)
		w := f.NodeWeights()
		ids := make([]string, 0, len(w))
		for id := range w {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(h, "%s=", id)
			writeBits(h, w[id])
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != searchTraceDigest {
		t.Errorf("search trace digest = %s, want %s", got, searchTraceDigest)
	}
}

func writeBits(h hash.Hash, fs ...float64) {
	var b [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

func writeAssignment(h hash.Hash, a resources.Assignment) {
	for _, g := range a.Keys() {
		fmt.Fprintf(h, "%s:", g)
		writeBits(h, a[g].CPU, a[g].MemMB)
	}
	h.Write([]byte{'\n'})
}
