package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"aarc/internal/inputaware"
	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/service"
	"aarc/internal/testutil"
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
// the final result changes it. It decides no version bump: version.lock
// and TestMethodPins do, from the stored bodies. A deliberate change that
// moves a trace re-records this constant, bumped or not; one that moves a
// trace but no stored body (a sample note's format, say) needs nothing
// else.
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
// their traces and final results with the recorded constant. It is the
// search-level twin of TestMethodPins, which sends the same cases through
// the service: a trace can move while no stored body does, and this test
// says exactly which search did.
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

// pinCase is one configure request whose stored body, or error text,
// feeds its method's pin.
type pinCase struct {
	digestCase
	ro service.RequestOptions
}

// pinCases is digestCases plus six requests per registered method that
// reach what no digest case does: chatbot at an SLO its base configuration
// misses, a spec whose base memory is under its floor, a sample budget,
// and video-analysis at each §IV-D input class. Every request carries its
// case's method and seed.
func pinCases(t *testing.T) []pinCase {
	t.Helper()
	var cases []pinCase
	for _, c := range digestCases(t) {
		cases = append(cases, pinCase{digestCase: c})
	}
	for _, method := range search.Methods() {
		add := func(name string, spec *workflow.Spec, ro service.RequestOptions) {
			c := digestCase{name: "pin/" + method + "/" + name, method: method, spec: spec, noise: true, seed: 7}
			cases = append(cases, pinCase{c, ro})
		}
		add("chatbot/slo=1", workloads.Chatbot(), service.RequestOptions{SLOMS: 1})
		add("oom", testutil.OOMSpec(), service.RequestOptions{})
		add("chatbot/max_samples=60", workloads.Chatbot(), service.RequestOptions{MaxSamples: 60})
		for _, class := range inputaware.DefaultVideoClasses() {
			add(fmt.Sprintf("video-analysis/scale=%g", class.Scale), workloads.VideoAnalysis(), service.RequestOptions{InputScale: class.Scale})
		}
	}
	for i := range cases {
		cases[i].ro.Method, cases[i].ro.Seed = cases[i].method, &cases[i].seed
	}
	return cases
}

// TestMethodPins configures every pin case through a service built like
// aarcd's default (96 host cores, noise on or off as the case says) and
// folds each case's name and stored body, or its error text, into one
// SHA-256 per method. internal/search/version.lock pins each registered
// method's version and digest. The version is part of every fingerprint,
// so a body that moves at an unchanged version would be served stale from
// any cache written before the change: a moved digest asks for a bump.
// A stored body carries its fingerprint, so a bump moves the digest too;
// the test then prints the lock line to paste.
func TestMethodPins(t *testing.T) {
	if testing.Short() {
		t.Skip("configures 200 requests")
	}
	services := map[bool]*service.Service{}
	for _, noise := range []bool{false, true} {
		svc, err := service.New(service.Config{Seed: 42, HostCores: 96, Noise: noise})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		services[noise] = svc
	}
	digests := map[string]hash.Hash{}
	for _, method := range search.Methods() {
		digests[method] = sha256.New()
	}
	for _, c := range pinCases(t) {
		body, _, err := services[c.noise].ConfigureJSON(context.Background(), c.spec, c.ro)
		if err != nil {
			body = []byte("error: " + err.Error())
		}
		fmt.Fprintf(digests[c.method], "%s\n%s\n", c.name, body)
	}

	pins := readPins(t, "../search/version.lock")
	for _, method := range search.Methods() {
		version, err := search.Version(method)
		if err != nil {
			t.Fatal(err)
		}
		digest := fmt.Sprintf("%x", digests[method].Sum(nil))
		line := fmt.Sprintf("%s %d %s", method, version, digest)
		pin, ok := pins[method]
		delete(pins, method)
		switch {
		case !ok:
			t.Errorf("%s has no pin in version.lock; add the line\n%s", method, line)
		case pin[1] != strconv.Itoa(version):
			t.Errorf("%s registers version %d, version.lock pins %s; replace its line with\n%s", method, version, pin[1], line)
		case pin[2] != digest:
			t.Errorf("%s stores other bodies than version.lock pins at version %d: bump the version %s registers it with", method, version, registrar(method))
		}
	}
	for method := range pins {
		t.Errorf("version.lock pins %s, which is not registered", method)
	}
}

// readPins parses a version.lock into its lines' fields by method: one
// "<method> <version> <digest>" line per method; blank lines and lines
// starting with # are ignored.
func readPins(t *testing.T, path string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string][]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("%s:%d: want \"<method> <version> <digest>\", got %q", path, i+1, line)
		}
		pins[f[0]] = f
	}
	return pins
}

// registrar names the package whose search.Register call gives method its
// version.
func registrar(method string) string {
	s, err := search.New(method, 0)
	if err != nil {
		return "its package"
	}
	typ := reflect.TypeOf(s)
	if typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	return typ.PkgPath()
}
