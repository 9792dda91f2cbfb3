package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aarc/internal/store"
	"aarc/internal/testutil"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// compactSpec is spec in the DecodeSpec format, compacted as clients send
// it.
func compactSpec(t testing.TB, spec *workflow.Spec) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, testutil.EncodeSpec(t, spec)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWireKeyIsTheSpecsKey: a configure body whose inline spec is stored
// under its request's options is keyed by its wire bytes, with no spec
// built, under the fingerprint the Go API gave it; under any other
// options it is not found there and is built.
func TestWireKeyIsTheSpecsKey(t *testing.T) {
	svc := stubService(t, Config{})
	seven := uint64(7)
	specs := []*workflow.Spec{testSpec(t, 0), workloads.Chatbot(), testutil.ScaleSpec(t, workloads.TopologyDiamond, 32, 3)}
	options := []struct {
		knobs string
		ro    RequestOptions
	}{
		{"", RequestOptions{}},
		{`,"seed":7`, RequestOptions{Seed: &seven}},
		{`,"slo_ms":123456`, RequestOptions{SLOMS: 123456}},
		{`,"max_samples":3,"input_scale":1.5`, RequestOptions{MaxSamples: 3, InputScale: 1.5}},
	}
	for _, spec := range specs {
		body, _, err := svc.ConfigureJSON(context.Background(), spec, options[0].ro)
		if err != nil {
			t.Fatal(err)
		}
		var rec Recommendation
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		for i, o := range options {
			req, err := decodeConfigure([]byte(`{"spec":` + compactSpec(t, spec) + o.knobs + `}`))
			if err != nil || req.doc == nil {
				t.Fatalf("%s%s: decoded %v, strict %v", spec.Name, o.knobs, err, req.doc != nil)
			}
			k, err := svc.keyRequest(req.specSource, req.options())
			if err != nil {
				t.Fatal(err)
			}
			r, err := svc.resolve(spec, o.ro)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := svc.fingerprint(spec, r)
			if err != nil {
				t.Fatal(err)
			}
			if k.fp != want {
				t.Errorf("%s%s: key %s, want the Go API's %s", spec.Name, o.knobs, k.fp, want)
			}
			if stored := i == 0; (k.spec == nil) != stored {
				t.Errorf("%s%s: found by its wire bytes %v, want %v", spec.Name, o.knobs, k.spec == nil, stored)
			}
			if i == 0 && k.fp != rec.Fingerprint {
				t.Errorf("%s: key %s, stored fingerprint %s", spec.Name, k.fp, rec.Fingerprint)
			}
		}
	}
}

// TestWireLookupCountsAsDeclinedPath runs one script of configures on two
// services over the durable stack, one sent as the strict reader reads
// it (the wire lookup) and one with a case-folded "SPEC" member that only
// encoding/json reads (the path that builds every spec first). Every
// answer, Stats and the disk's op and fault counts must agree step by
// step: hits, misses, an invalid spec, entries only on disk, and an open
// breaker. So the lookup reads no tier for a key the store lacks, and a
// key it holds costs the one Get a built spec's lookup costs.
func TestWireLookupCountsAsDeclinedPath(t *testing.T) {
	type side struct {
		svc    *Service
		h      http.Handler
		faulty *store.Faulty
	}
	open := func() side {
		disk, err := store.OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		faulty := store.NewFaulty(disk, store.FaultConfig{})
		clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
		svc := stubService(t, Config{Store: store.NewDurable(faulty, 2, store.BreakerConfig{Clock: clock.now, Logf: t.Logf})})
		return side{svc, NewHandler(svc), faulty}
	}
	wire, declined := open(), open()
	bad := strings.Replace(compactSpec(t, testSpec(t, 0)), `"slo_ms":`, `"slo_ms":-`, 1)
	type step struct {
		name  string
		body  string // a configure body; "" to take the breaker down instead
		cache string
	}
	spec := func(v int) string { return `{"spec":` + specBody(t, v) + `}` }
	steps := []step{
		{"miss", spec(0), "miss"},
		{"hit", spec(0), "hit"},
		{"invalid spec", `{"spec":` + bad + `}`, ""},
		{"invalid spec, unknown method", `{"method":"nope","spec":` + bad + `}`, ""},
		{"miss 1", spec(1), "miss"},
		{"miss 2: spec 0 is on disk only", spec(2), "miss"},
		{"disk hit", spec(0), "hit"},
		{"unknown method", `{"method":"nope","spec":` + specBody(t, 3) + `}`, ""},
		{"disk down", "", ""},
		{"miss during the outage", spec(4), "miss"},
		{"miss that opens the breaker", spec(5), "miss"},
		{"memory hit, breaker open", spec(5), "hit"},
		{"disk-only entry, breaker open", spec(1), "miss"},
		{"invalid spec, breaker open", `{"spec":` + bad + `}`, ""},
		{"new spec, breaker open", spec(6), "miss"},
	}
	for _, st := range steps {
		var got [2]string
		for i, sd := range []side{wire, declined} {
			if st.body == "" {
				sd.faulty.FailAll(nil)
				continue
			}
			body := st.body
			if sd.svc == declined.svc {
				body = strings.Replace(body, `"spec":`, `"SPEC":`, 1)
			}
			w := httptest.NewRecorder()
			sd.h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/configure", strings.NewReader(body)))
			if cache := w.Header().Get("X-Aarc-Cache"); cache != st.cache || (st.cache == "") != (w.Code != http.StatusOK) {
				t.Fatalf("%s: status %d, X-Aarc-Cache %q, want %q: %s", st.name, w.Code, cache, st.cache, w.Body)
			}
			got[i] = fmt.Sprintf("%d %s\nstats %+v\ndisk ops %d, faults %d", w.Code, w.Body, sd.svc.Stats(), sd.faulty.Ops(), sd.faulty.Injected())
		}
		if got[0] != got[1] {
			t.Fatalf("%s: the wire lookup and the declined path differ:\nwire:     %s\ndeclined: %s", st.name, got[0], got[1])
		}
	}
	if got := wire.svc.Stats().BreakerState; got != "open" {
		t.Fatalf("the script ended with the breaker %q, want open", got)
	}
}

// TestInvalidateAbsentKeyListsNoKeys: a DELETE of a fingerprint the
// store lacks checks the stores' indexes and allocates nothing, however
// many entries the tiers hold; it used to build a map and a slice of
// every key. A present key is still removed.
func TestInvalidateAbsentKeyListsNoKeys(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewDurable(disk, 16, store.BreakerConfig{Logf: t.Logf})
	for i := 0; i < 300; i++ {
		if err := st.Put(fmt.Sprintf("sha256:%064d", i), store.Entry{Body: []byte("{}")}); err != nil {
			t.Fatal(err)
		}
	}
	svc := stubService(t, Config{Store: st})
	allocs := testing.AllocsPerRun(100, func() {
		if existed, err := svc.Invalidate("sha256:absent"); existed || err != nil {
			t.Fatalf("Invalidate(absent) = %v, %v", existed, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Invalidate of an absent key allocates %v times over 300 entries, want 0", allocs)
	}
	for _, i := range []int{0, 299} { // on disk only, and in both tiers
		fp := fmt.Sprintf("sha256:%064d", i)
		if existed, err := svc.Invalidate(fp); !existed || err != nil || store.Contains(st, fp) {
			t.Errorf("Invalidate(%d) = %v, %v; still there: %v", i, existed, err, store.Contains(st, fp))
		}
	}
}

// TestNonFiniteOptionsAreRequestErrors: no cache key carries a NaN or an
// infinity, so a request SLO, budget or input scale that is one is a 400
// through every Go entry point, per item in a batch, and a Config float
// that is one fails New. Each of these used to panic inside
// search.Options.CanonicalJSON or fail with a bare json error.
func TestNonFiniteOptionsAreRequestErrors(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testSpec(t, 0)
	for _, c := range []struct {
		name     string
		ro       RequestOptions
		dispatch bool // Dispatch replaces the input scale with its class's
	}{
		{"+Inf SLO", RequestOptions{SLOMS: math.Inf(1)}, true},
		{"-Inf SLO", RequestOptions{SLOMS: math.Inf(-1)}, true},
		{"NaN SLO", RequestOptions{SLOMS: math.NaN()}, true},
		{"+Inf budget", RequestOptions{MaxSimCostMS: math.Inf(1)}, true},
		{"NaN budget", RequestOptions{MaxSimCostMS: math.NaN()}, true},
		{"+Inf input scale", RequestOptions{InputScale: math.Inf(1)}, false},
		{"NaN input scale", RequestOptions{InputScale: math.NaN()}, false},
	} {
		isRequestError := func(via string, err error) {
			t.Helper()
			if !errors.As(err, new(requestError)) || statusOf(err) != http.StatusBadRequest {
				t.Errorf("%s via %s: %v, want a requestError (400)", c.name, via, err)
			}
		}
		_, _, err := svc.ConfigureJSON(context.Background(), spec, c.ro)
		isRequestError("ConfigureJSON", err)
		results, err := svc.ConfigureBatch(context.Background(), []BatchItem{{Spec: spec, Options: c.ro}, {Spec: spec}})
		if err != nil || len(results) != 2 || results[1].Err != nil {
			t.Fatalf("%s via ConfigureBatch: %v; the finite item: %v", c.name, err, results)
		}
		isRequestError("ConfigureBatch", results[0].Err)
		if c.dispatch {
			_, _, err = svc.Dispatch(context.Background(), spec, nil, 1, c.ro)
			isRequestError("Dispatch", err)
		}
	}
	for _, cfg := range []Config{{MaxSimCostMS: math.Inf(1)}, {SLOMS: math.NaN()}, {HostCores: math.Inf(1)}, {InputScale: math.Inf(-1)}} {
		if svc, err := New(cfg); err == nil {
			svc.Close()
			t.Errorf("New(%+v) succeeded, want an error", cfg)
		}
	}
}

// inlineHitAllocs is the bound TestInlineHitAllocs holds an in-process
// POST hit of a 32-node inline spec to, decode to stored body: 16
// measured, 19 under the race detector (whose sync.Pool drops pooled
// encoder state at random), plus a little slack. Building the spec on a
// hit costs some 300 more, so a lookup that goes back to building it
// fails.
const inlineHitAllocs = 22

// TestInlineHitAllocs bounds the allocations of a configure hit of an
// inline spec between the body read and the response write: the strict
// read, the wire bytes, the key and the store lookup.
func TestInlineHitAllocs(t *testing.T) {
	svc := stubService(t, Config{})
	spec := testutil.ScaleSpec(t, workloads.TopologyLayered, 32, 1)
	if _, _, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{}); err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"spec":` + compactSpec(t, spec) + `}`)
	avg := testing.AllocsPerRun(50, func() {
		req, err := decodeConfigure(body)
		if err != nil {
			t.Fatal(err)
		}
		k, err := svc.keyRequest(req.specSource, req.options())
		if err != nil {
			t.Fatal(err)
		}
		if _, hit, err := svc.serve(context.Background(), k); err != nil || !hit {
			t.Fatalf("inline POST: hit %v, %v", hit, err)
		}
	})
	t.Logf("inline POST hit: %.1f allocs", avg)
	if avg > inlineHitAllocs {
		t.Errorf("an inline POST hit allocates %.1f times, want at most %d", avg, inlineHitAllocs)
	}
}

// qualitySetBodies are the POST bodies of aarcload's quality set: 40
// Scale specs, families round robin, 8 to 64 nodes, drawn from its fixed
// seed and compacted as it sends them.
func qualitySetBodies(b *testing.B) [][]byte {
	rng := rand.New(rand.NewPCG(0x5eed, 0x4ef))
	topos := workloads.Topologies()
	bodies := make([][]byte, 40)
	for i := range bodies {
		spec, err := workloads.Scale(workloads.ScaleOptions{Topology: topos[i%len(topos)], Nodes: 8 * (1 + (i/len(topos))%8), Seed: rng.Uint64()})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = []byte(`{"spec":` + compactSpec(b, spec) + `}`)
	}
	return bodies
}

// BenchmarkConfigureHitQualitySet answers the 40 quality-set bodies as
// memory-tier hits, one op per set, in process from body bytes to stored
// body: Built decodes and builds each spec and configures it as every
// hit did before the wire lookup (read, build, Validate, CanonicalJSON,
// hash, Get); Wire takes the configure route's path (read, wire bytes,
// hash, Contains, Get).
//
//	go test -run '^$' -bench ConfigureHitQualitySet -benchmem ./internal/service
func BenchmarkConfigureHitQualitySet(b *testing.B) {
	svc := stubService(b, Config{})
	bodies := qualitySetBodies(b)
	for _, body := range bodies {
		spec, err := workflow.DecodeSpec(bytes.NewReader(body[len(`{"spec":`) : len(body)-1]))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := svc.ConfigureJSON(context.Background(), spec, RequestOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Built", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, body := range bodies {
				req, err := decodeConfigure(body)
				if err != nil {
					b.Fatal(err)
				}
				spec, err := req.spec()
				if err != nil {
					b.Fatal(err)
				}
				if _, hit, err := svc.ConfigureJSON(context.Background(), spec, req.options()); err != nil || !hit {
					b.Fatalf("hit %v, %v", hit, err)
				}
			}
		}
	})
	b.Run("Wire", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for _, body := range bodies {
				req, err := decodeConfigure(body)
				if err != nil {
					b.Fatal(err)
				}
				k, err := svc.keyRequest(req.specSource, req.options())
				if err != nil {
					b.Fatal(err)
				}
				if _, hit, err := svc.serve(context.Background(), k); err != nil || !hit {
					b.Fatalf("hit %v, %v", hit, err)
				}
			}
		}
	})
}
