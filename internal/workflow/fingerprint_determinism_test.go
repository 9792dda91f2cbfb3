package workflow

import (
	"bytes"
	"math/rand"
	"testing"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// buildPermutedSpec constructs the same logical workflow with every
// order-sensitive construction step — node insertion, edge insertion,
// and all three map populations — performed in a random permutation.
// If CanonicalJSON leaks any construction or map-iteration order, two
// permutations will disagree.
func buildPermutedSpec(rng *rand.Rand) *Spec {
	ids := []string{"ingest", "split", "embed", "rank", "merge", "emit"}
	edges := [][2]string{
		{"ingest", "split"},
		{"split", "embed"},
		{"split", "rank"},
		{"embed", "merge"},
		{"rank", "merge"},
		{"merge", "emit"},
	}
	groups := map[string]string{"embed": "workers", "rank": "workers"}

	g := dag.New()
	for _, i := range rng.Perm(len(ids)) {
		g.MustAddNode(ids[i])
	}
	for _, i := range rng.Perm(len(edges)) {
		g.MustAddEdge(edges[i][0], edges[i][1])
	}

	profiles := make(map[string]perfmodel.Profile, len(ids))
	for _, i := range rng.Perm(len(ids)) {
		id := ids[i]
		profiles[id] = perfmodel.Profile{
			Name: id, CPUWorkMS: 1000 * float64(i+1), ParallelFrac: 0.5,
			MaxParallel: 4, IOMS: 100, FootprintMB: 256, MinMemMB: 128,
			PressureK: 1,
		}
	}

	spec := &Spec{
		Name:     "permuted",
		G:        g,
		Profiles: profiles,
		Groups:   make(map[string]string, len(groups)),
		SLOMS:    30_000,
		Limits:   resources.DefaultLimits(),
	}
	gids := []string{"embed", "rank"}
	for _, i := range rng.Perm(len(gids)) {
		spec.Groups[gids[i]] = groups[gids[i]]
	}

	fgs := spec.FunctionGroups()
	base := make(resources.Assignment, len(fgs))
	for _, i := range rng.Perm(len(fgs)) {
		base[fgs[i]] = resources.Config{CPU: 4, MemMB: 2048}
	}
	spec.Base = base
	return spec
}

// TestCanonicalJSONByteStableUnderMapOrderPerturbation: 100
// independently permuted constructions of the same workflow must
// canonicalize to byte-identical JSON, and therefore to one
// fingerprint. A single differing byte here splits the cache. Each one
// is also sent as EncodeSpec writes it, its nodes and edges in the
// permuted order, and the document's own canonical bytes (the configure
// route's lookup key) must be the same bytes.
func TestCanonicalJSONByteStableUnderMapOrderPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(0xaa2c))
	ref, err := CanonicalJSON(buildPermutedSpec(rng))
	if err != nil {
		t.Fatal(err)
	}
	refFP, err := Fingerprint(buildPermutedSpec(rng))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 100; run++ {
		spec := buildPermutedSpec(rng)
		got, err := CanonicalJSON(spec)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("run %d: canonical bytes diverged\nref: %s\ngot: %s", run, ref, got)
		}
		fp, err := Fingerprint(spec)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if fp != refFP {
			t.Fatalf("run %d: fingerprint diverged: %s vs %s", run, fp, refFP)
		}
		var sent bytes.Buffer
		if err := EncodeSpec(&sent, spec); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		d, ok := strictDoc(sent.Bytes())
		if !ok {
			t.Fatalf("run %d: the strict reader declined EncodeSpec's output", run)
		}
		if wire := d.CanonicalJSON(); !bytes.Equal(wire, ref) {
			t.Fatalf("run %d: the document's canonical bytes diverged\nref:  %s\nwire: %s", run, ref, wire)
		}
	}
}

// TestValidateErrorStableUnderMapOrderPerturbation: Validate guards
// CanonicalJSON, so an invalid spec must be refused with the same error
// whatever order its maps were built and iterated in. Each of 100
// permuted constructions maps four nodes the DAG lacks, inserted in a
// random order; every run must report the same one.
func TestValidateErrorStableUnderMapOrderPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7a1d))
	ghosts := []string{"ghost-d", "ghost-b", "ghost-a", "ghost-c"}
	const want = `workflow permuted: group mapping for unknown node "ghost-a"`
	for run := 0; run < 100; run++ {
		spec := buildPermutedSpec(rng)
		for _, i := range rng.Perm(len(ghosts)) {
			spec.Groups[ghosts[i]] = "workers"
		}
		err := spec.Validate()
		if err == nil {
			t.Fatalf("run %d: Validate accepted group mappings for unknown nodes", run)
		}
		if err.Error() != want {
			t.Fatalf("run %d: Validate error = %q, want %q", run, err, want)
		}
	}
}

// TestCanonicalRoundTripStableUnderPerturbation: decoding canonical
// bytes and re-canonicalizing must reproduce them exactly, for any
// construction order — the property the restart/warm-start path
// depends on.
func TestCanonicalRoundTripStableUnderPerturbation(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for run := 0; run < 20; run++ {
		b, err := CanonicalJSON(buildPermutedSpec(rng))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := DecodeCanonicalSpec(b)
		if err != nil {
			t.Fatalf("run %d: decode: %v", run, err)
		}
		b2, err := CanonicalJSON(spec)
		if err != nil {
			t.Fatalf("run %d: re-encode: %v", run, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("run %d: round trip not byte-exact\nfirst:  %s\nsecond: %s", run, b, b2)
		}
	}
}
