package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"time"

	"aarc"
	"aarc/internal/service"
	"aarc/internal/workflow"
	"aarc/internal/workloads"
)

// workload is one traffic mix: its fixed open-loop arrival rate, the
// memory-tier size of the service it runs against, and its generator.
type workload struct {
	name string
	// rate is the open-loop arrival rate in requests per second, fixed at
	// about 30 % of the workload's capacity_rps on a 2-core x86 host.
	rate float64
	// cacheSize is the service's WithCacheSize: aarcd's default 128, or
	// the 32 durable-churn's daemon runs with.
	cacheSize int
	// durable selects the tiered memory-over-disk store aarcd builds for
	// -cache-dir; the other workloads run on the memory store.
	durable    bool
	newTraffic func(seed uint64, sz sizes) traffic
}

var allWorkloads = []workload{
	{name: "hit-repeat", rate: 1500, cacheSize: 128, newTraffic: newHitRepeat},
	{name: "cold-unique", rate: 170, cacheSize: 128, newTraffic: newColdUnique},
	{name: "durable-churn", rate: 830, cacheSize: 32, durable: true, newTraffic: newDurableChurn},
	{name: "whatif-batch", rate: 160, cacheSize: 128, newTraffic: newWhatifBatch},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// sizes scale a run; the smoke test shrinks them to fit the race detector.
type sizes struct {
	load        float64 // multiplies the workload's open-loop rate
	setups      int     // services set up; setup_s is their median, the last serves the load
	hitSpecs    int     // hit-repeat: configured specs the popularity draw ranges over
	readOnly    int     // durable-churn: on-disk entries GETs range over
	whatifSpecs int     // whatif-batch: configured specs evaluated and batched
	probes      int     // traced run: request bodies the probe phase re-runs
	checks      int     // untraced run: served recommendations re-searched
	reference   int     // quality set: specs configured after the load
	closedPool  int     // caps the closed-loop request pool; 0: no cap
}

var (
	fullSizes  = sizes{load: 1, setups: 7, hitSpecs: 64, readOnly: 448, whatifSpecs: 16, probes: 200, checks: 16, reference: 40}
	smallSizes = sizes{load: 0.1, setups: 3, hitSpecs: 8, readOnly: 24, whatifSpecs: 4, probes: 4, checks: 4, reference: 5, closedPool: 64}
)

// traffic generates one workload's requests from its seed.
type traffic interface {
	// build makes the inputs that exist before the measured service:
	// durable-churn stores its on-disk fixture in dir here.
	build(dir string) error
	// prime configures the fixture on the measured service, untimed.
	prime(svc *aarc.Service) error
	// next draws the next request of the stream.
	next() (*request, error)
}

// specBody is one generated workflow definition as a client sends it.
type specBody struct {
	spec   []byte   // the spec alone, in the DecodeSpec format
	post   []byte   // the POST /v1/configure body: {"spec": ...}
	groups []string // the spec's function groups, sorted
}

func newSpecBody(spec *workflow.Spec) (*specBody, error) {
	var buf, compact bytes.Buffer
	if err := workflow.EncodeSpec(&buf, spec); err != nil {
		return nil, err
	}
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		return nil, err
	}
	inner := compact.Bytes()
	post := make([]byte, 0, len(inner)+len(`{"spec":}`))
	post = append(post, `{"spec":`...)
	post = append(post, inner...)
	post = append(post, '}')
	return &specBody{spec: inner, post: post, groups: spec.FunctionGroups()}, nil
}

// scaleBody generates the i-th spec of a stream. Topology families come
// round robin, so every seed sends the same family mix; the spec seed
// (part of the spec's name) makes every spec of a run distinct.
func scaleBody(rng *rand.Rand, i, nodes int) (*specBody, error) {
	topos := workloads.Topologies()
	spec, err := workloads.Scale(workloads.ScaleOptions{
		Topology: topos[i%len(topos)],
		Nodes:    nodes,
		Seed:     rng.Uint64(),
	})
	if err != nil {
		return nil, err
	}
	return newSpecBody(spec)
}

// entry is one configured fixture recommendation.
type entry struct {
	body *specBody
	wire []byte // the response body as served: the stored bytes plus "\n"
	rec  aarc.ServiceRecommendation
}

// serviceOptions builds the service the way cmd/aarcd does at its flag
// defaults, with the workload's cache size.
func serviceOptions(cacheSize int) []aarc.Option {
	return []aarc.Option{
		aarc.WithMethod("aarc"),
		aarc.WithSeed(42),
		aarc.WithHostCores(96),
		aarc.WithNoise(true),
		aarc.WithCacheSize(cacheSize),
	}
}

// configureAll configures every body on svc through its Go API,
// runtime.NumCPU() at a time, and returns the entries in body order.
// Every body must be new to svc.
func configureAll(svc *aarc.Service, bodies []*specBody) ([]*entry, error) {
	out := make([]*entry, len(bodies))
	errs := make([]error, len(bodies))
	todo := make(chan int, len(bodies))
	for i := range bodies {
		todo <- i
	}
	close(todo)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				out[i], errs[i] = configureOne(svc, bodies[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func configureOne(svc *aarc.Service, b *specBody) (*entry, error) {
	spec, err := workflow.DecodeSpec(bytes.NewReader(b.spec))
	if err != nil {
		return nil, err
	}
	body, hit, err := svc.ConfigureJSON(context.Background(), spec, aarc.ServiceRequest{})
	if err != nil {
		return nil, fmt.Errorf("fixture: configuring %s: %w", spec.Name, err)
	}
	if hit {
		return nil, fmt.Errorf("fixture: %s was already configured", spec.Name)
	}
	e := &entry{body: b, wire: append(append([]byte(nil), body...), '\n')}
	if err := json.Unmarshal(body, &e.rec); err != nil {
		return nil, fmt.Errorf("fixture: decoding %s: %w", spec.Name, err)
	}
	if err := covers(&e.rec, b.groups); err != nil {
		return nil, fmt.Errorf("fixture: %s: %w", spec.Name, err)
	}
	return e, nil
}

// deck deals request kinds from shuffled blocks that hold each kind as
// often as its weight, so every stretch of a run has the workload's exact
// mix and the seed changes only the order. Drawing each kind at random
// instead would let the mix, and with it the cost per request, differ
// from seed to seed.
type deck struct {
	rng     *rand.Rand
	weights []int
	cards   []int
}

func newDeck(rng *rand.Rand, weights ...int) *deck {
	return &deck{rng: rng, weights: weights}
}

func (d *deck) draw() int {
	if len(d.cards) == 0 {
		for kind, w := range d.weights {
			for range w {
				d.cards = append(d.cards, kind)
			}
		}
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	k := d.cards[len(d.cards)-1]
	d.cards = d.cards[:len(d.cards)-1]
	return k
}

// hitRepeat is the steady state of a configuration service: every request
// repeats a configured spec, as an inline-spec POST or a fingerprint GET.
type hitRepeat struct {
	sz     sizes
	rng    *rand.Rand
	kinds  *deck
	bodies []*specBody
	fix    []*entry
	zipf   *rand.Zipf
}

func newHitRepeat(seed uint64, sz sizes) traffic {
	rng := rand.New(rand.NewPCG(seed, 0x417))
	return &hitRepeat{sz: sz, rng: rng, kinds: newDeck(rng, 1, 1)}
}

// build generates the fixture specs. Popularity rank i always has the same
// topology family and node count, so the traffic's mix of spec sizes, and
// with it the cost per request, is the same for every seed. Sizes stop at
// 64 nodes, the largest every family configures at 96 host cores: from 80
// nodes up fanout specs are often refused (their base configuration
// misses the SLO), and a 112- or 256-node layered search can run the
// service out of memory enumerating detour subpaths.
func (h *hitRepeat) build(string) error {
	nodes := []int{16, 32, 64}
	for i := 0; i < h.sz.hitSpecs; i++ {
		b, err := scaleBody(h.rng, i, nodes[i%len(nodes)])
		if err != nil {
			return err
		}
		h.bodies = append(h.bodies, b)
	}
	return nil
}

func (h *hitRepeat) prime(svc *aarc.Service) error {
	fix, err := configureAll(svc, h.bodies)
	if err != nil {
		return err
	}
	h.fix = fix
	h.zipf = rand.NewZipf(h.rng, 1.1, 1, uint64(len(fix)-1))
	return nil
}

// next draws inline-spec POSTs and fingerprint GETs half and half.
func (h *hitRepeat) next() (*request, error) {
	e := h.fix[h.zipf.Uint64()]
	if h.kinds.draw() == 0 {
		return &request{op: opConfigure, body: e.body.post, fix: e}, nil
	}
	return &request{op: opGet, path: "/v1/recommendation/" + e.rec.Fingerprint, fix: e}, nil
}

// coldUnique sends only specs the service has never seen: the paper's own
// path, the first configuration of a new workflow.
type coldUnique struct {
	rng   *rand.Rand
	nodes *deck // node count minus minNodes
	n     int
}

const minNodes, maxNodes = 8, 64

func newColdUnique(seed uint64, _ sizes) traffic {
	rng := rand.New(rand.NewPCG(seed, 0xc01d))
	weights := make([]int, maxNodes-minNodes+1)
	for i := range weights {
		weights[i] = 1
	}
	return &coldUnique{rng: rng, nodes: newDeck(rng, weights...)}
}

func (c *coldUnique) build(string) error        { return nil }
func (c *coldUnique) prime(*aarc.Service) error { return nil }

// next draws node counts uniformly over [minNodes, maxNodes], dealt so that
// every block of requests holds each count once, with families round
// robin.
func (c *coldUnique) next() (*request, error) {
	b, err := scaleBody(c.rng, c.n, minNodes+c.nodes.draw())
	if err != nil {
		return nil, err
	}
	c.n++
	return &request{op: opConfigure, body: b.post, spec: b}, nil
}

// durableChurn runs against the tiered store of a restarted daemon whose
// disk holds many times its memory tier: reads spread over the whole disk,
// churned specs search and write through, and deletes remove entries.
type durableChurn struct {
	sz       sizes
	rng      *rand.Rand
	kinds    *deck // GET, POST, DELETE
	edits    *deck // node inserted, edge rewired
	readOnly []*entry
	specs    []*workflow.Spec // the read-only entries' specs: churn templates
	churned  []*created       // churned configures not yet deleted, oldest first
	n        int
}

func newDurableChurn(seed uint64, sz sizes) traffic {
	rng := rand.New(rand.NewPCG(seed, 0xd15c))
	return &durableChurn{sz: sz, rng: rng, kinds: newDeck(rng, 16, 3, 1), edits: newDeck(rng, 1, 1)}
}

// build stores the fixture the way a previous daemon would have: one
// service over dir configures every entry, writing each through to disk,
// and closes.
func (d *durableChurn) build(dir string) error {
	bodies := make([]*specBody, d.sz.readOnly)
	for i := range bodies {
		b, err := scaleBody(d.rng, i, 32)
		if err != nil {
			return err
		}
		bodies[i] = b
		spec, err := workflow.DecodeSpec(bytes.NewReader(b.spec))
		if err != nil {
			return err
		}
		d.specs = append(d.specs, spec)
	}
	fix, err := storeEntries(dir, bodies)
	d.readOnly = fix
	return err
}

// storeEntries configures every body on a service over dir that writes
// each entry through to disk, and closes it.
func storeEntries(dir string, bodies []*specBody) ([]*entry, error) {
	svc, err := aarc.NewService(append(serviceOptions(32), aarc.WithCacheDir(dir))...)
	if err != nil {
		return nil, err
	}
	fix, err := configureAll(svc, bodies)
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	return fix, err
}

func (d *durableChurn) prime(*aarc.Service) error { return nil }

// next draws 80 % GETs of read-only entries, 15 % POSTs of churned specs
// and 5 % DELETEs. The k-th DELETE removes the entry the k-th churned POST
// created, once that POST has answered; POSTs outnumber DELETEs three to
// one, so by then the entry has usually left the memory tier and lives on
// disk. A fixed set of delete-only fixture entries would run out: at 830
// req/s a run deletes about 850 entries before its closed loop. A DELETE
// drawn before any undeleted POST exists becomes a GET.
func (d *durableChurn) next() (*request, error) {
	switch kind := d.kinds.draw(); {
	case kind == 2 && len(d.churned) > 0:
		target := d.churned[0]
		d.churned = d.churned[1:]
		return &request{op: opDelete, target: target}, nil
	case kind == 1:
		b, err := d.churn()
		if err != nil {
			return nil, err
		}
		c := &created{n: d.n - 1, done: make(chan struct{})}
		d.churned = append(d.churned, c)
		return &request{op: opConfigure, body: b.post, spec: b, created: c}, nil
	default:
		e := d.readOnly[d.rng.IntN(len(d.readOnly))]
		return &request{op: opGet, path: "/v1/recommendation/" + e.rec.Fingerprint, fix: e}, nil
	}
}

// churn copies a read-only fixture spec with one random node inserted or
// one edge rewired. The copy is renamed, so every churned spec is new.
func (d *durableChurn) churn() (*specBody, error) {
	spec := d.specs[d.rng.IntN(len(d.specs))].Clone()
	var delta workflow.Delta
	var err error
	if d.edits.draw() == 0 {
		delta, err = workloads.AddRandomNodes(spec, d.rng, 1)
		// The inserted node can lengthen the critical path by up to 1.2
		// times one node's runtime, past the 2×-critical-path SLO the
		// template was generated with; the client relaxes the SLO so the
		// edited workflow stays configurable.
		spec.SLOMS *= 1.5
	} else {
		delta, err = workloads.RewireRandomEdges(spec, d.rng, 1)
	}
	if err != nil {
		return nil, err
	}
	if err := spec.Apply(delta); err != nil {
		return nil, err
	}
	spec.Name = fmt.Sprintf("%s-churn%d", spec.Name, d.n)
	d.n++
	return newSpecBody(spec)
}

// whatifBatch is the post-configuration traffic: what-if evaluations on
// the sharded runner pools, and configure batches mixing hits, in-batch
// duplicates and new specs.
type whatifBatch struct {
	sz      sizes
	rng     *rand.Rand
	kinds   *deck // 16-run evaluate, 64-run evaluate, batch
	moves   *deck // evaluate under the recommendation, under a moved CPU
	bodies  []*specBody
	fix     []*entry
	batches int
}

func newWhatifBatch(seed uint64, sz sizes) traffic {
	rng := rand.New(rand.NewPCG(seed, 0x3a7))
	return &whatifBatch{sz: sz, rng: rng, kinds: newDeck(rng, 3, 3, 4), moves: newDeck(rng, 1, 1)}
}

func (w *whatifBatch) build(string) error {
	for i := 0; i < w.sz.whatifSpecs; i++ {
		b, err := scaleBody(w.rng, i, 32)
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, b)
	}
	return nil
}

func (w *whatifBatch) prime(svc *aarc.Service) error {
	fix, err := configureAll(svc, w.bodies)
	w.fix = fix
	return err
}

// next draws 60 % evaluates, half of 16 runs and half of 64, and 40 %
// batches.
func (w *whatifBatch) next() (*request, error) {
	switch w.kinds.draw() {
	case 0:
		return w.evaluate(16)
	case 1:
		return w.evaluate(64)
	default:
		return w.batch()
	}
}

// evaluateBody is the POST /v1/evaluate body.
type evaluateBody struct {
	Fingerprint string                         `json:"fingerprint"`
	Runs        int                            `json:"runs"`
	Assignment  map[string]service.ConfigValue `json:"assignment,omitempty"`
}

// evaluate asks for runs what-if runs of a fixture entry, half under its
// recommendation and half with one group's CPU moved one grid step.
func (w *whatifBatch) evaluate(runs int) (*request, error) {
	e := w.fix[w.rng.IntN(len(w.fix))]
	body := evaluateBody{Fingerprint: e.rec.Fingerprint, Runs: runs}
	if w.moves.draw() == 1 {
		moved := moveOneCPU(e.rec.ResourceAssignment(), w.rng.IntN(len(e.rec.Assignment)))
		body.Assignment = make(map[string]service.ConfigValue, len(moved))
		for g, c := range moved {
			body.Assignment[g] = service.ConfigValue{CPU: c.CPU, MemMB: c.MemMB}
		}
	}
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return &request{op: opEvaluate, path: "/v1/evaluate", body: b, runs: body.Runs}, nil
}

// moveOneCPU copies a with the CPU of its k-th group, in sorted order,
// moved one grid step: up, or down from the top of the grid.
func moveOneCPU(a aarc.Assignment, k int) aarc.Assignment {
	lim := aarc.DefaultLimits()
	out := a.Clone()
	g := a.Keys()[k%len(a)]
	c := out[g]
	step := lim.CPUStep
	if c.CPU+step > lim.MaxCPU+1e-9 {
		step = -step
	}
	c.CPU += step
	out[g] = lim.Snap(c)
	return out
}

// batch builds an 8-item configure batch: 4 fixture hits (rotating through
// the fixture, so every entry stays recently used in the memory tier), 2
// copies of one new spec and 2 other new specs.
func (w *whatifBatch) batch() (*request, error) {
	var fresh [3]*specBody
	for k := range fresh {
		b, err := scaleBody(w.rng, w.batches*len(fresh)+k, 32)
		if err != nil {
			return nil, err
		}
		fresh[k] = b
	}
	hit := func(k int) batchItem {
		return batchItem{fix: w.fix[(w.batches*4+k)%len(w.fix)], dupOf: -1}
	}
	w.batches++
	items := []batchItem{
		hit(0), {spec: fresh[0], dupOf: -1},
		hit(1), {spec: fresh[1], dupOf: -1},
		hit(2), {spec: fresh[0], dupOf: 1},
		hit(3), {spec: fresh[2], dupOf: -1},
	}
	var body bytes.Buffer
	body.WriteString(`{"requests":[`)
	for i, it := range items {
		if i > 0 {
			body.WriteByte(',')
		}
		if it.fix != nil {
			body.Write(it.fix.body.post)
		} else {
			body.Write(it.spec.post)
		}
	}
	body.WriteString(`]}`)
	return &request{op: opBatch, path: "/v1/configure:batch", body: body.Bytes(), items: items}, nil
}

// referenceBodies generates the quality set: n specs, families round robin,
// 8 to 64 nodes in steps of 8. It is drawn from a fixed seed, not the run's,
// so every run of one build recommends exactly the same configurations for
// it, and the quality metrics can be compared exactly across seeds.
func referenceBodies(n int) ([]*specBody, error) {
	rng := rand.New(rand.NewPCG(0x5eed, 0x4ef))
	bodies := make([]*specBody, n)
	for i := range bodies {
		step := i / len(workloads.Topologies())
		b, err := scaleBody(rng, i, minNodes*(1+step%(maxNodes/minNodes)))
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// poisson draws open-loop due times at rate per second over [0, d).
func poisson(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return due
		}
		due = append(due, time.Duration(t*float64(time.Second)))
	}
}
