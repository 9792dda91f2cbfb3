package workflow

import (
	"fmt"
	"math/rand/v2"

	"aarc/internal/dag"
	"aarc/internal/pricing"
	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/simfaas"
)

// RunnerOptions configures workflow execution.
type RunnerOptions struct {
	// HostCores is the host CPU capacity shared by concurrently running
	// containers (the paper's testbed has 96 physical cores). Zero disables
	// contention.
	HostCores float64
	// Noise enables the profiles' multiplicative measurement noise.
	Noise bool
	// Seed seeds the runner's deterministic RNG stream.
	Seed uint64
	// Platform overrides the default simulated platform.
	Platform *simfaas.Platform
	// Price overrides the default (paper) pricing model.
	Price *pricing.Model
	// InputScale is the default input scale (1.0 when zero).
	InputScale float64
}

// Runner executes a Spec on the simulated platform and implements
// search.Evaluator. It compiles the spec into a dense execution plan at
// construction, owns one simfaas.Container per plan node (the keep-alive
// state that carries warm starts from one evaluation to the next) and
// reuses a scratch arena across evaluations, so it is NOT safe for
// concurrent use: create one runner per goroutine (runners may share a
// Platform, which is immutable).
type Runner struct {
	spec       *Spec
	plan       *plan
	platform   *simfaas.Platform
	containers []simfaas.Container // per dense node ID
	price      pricing.Model
	cores      float64
	noise      bool
	scale      float64
	rng        *rand.Rand
	scratch    scratch
}

// NewRunner validates the spec and builds a runner.
func NewRunner(spec *Spec, opts RunnerOptions) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{
		spec:  spec,
		cores: opts.HostCores,
		noise: opts.Noise,
		scale: opts.InputScale,
	}
	if r.scale <= 0 {
		r.scale = 1
	}
	if opts.Platform != nil {
		r.platform = opts.Platform
	} else {
		r.platform = simfaas.New(simfaas.DefaultOptions())
	}
	if opts.Price != nil {
		r.price = *opts.Price
	} else {
		r.price = pricing.Paper()
	}
	r.rng = rand.New(rand.NewPCG(opts.Seed, 0x9e3779b97f4a7c15))
	p, err := compilePlan(spec)
	if err != nil {
		return nil, err
	}
	r.plan = p
	r.containers = make([]simfaas.Container, len(p.ids))
	return r, nil
}

// An AssignmentError is an assignment the runner cannot execute: it leaves
// a group without a configuration or gives one an invalid configuration.
// It is the caller's input at fault, not the runner.
type AssignmentError string

func (e AssignmentError) Error() string { return string(e) }

// Spec returns the workflow specification the runner executes.
func (r *Runner) Spec() *Spec { return r.spec }

// Graph returns the workflow DAG (for graph-centric searchers).
func (r *Runner) Graph() *dag.Graph { return r.spec.G }

// GroupOf returns the configuration group of a DAG node.
func (r *Runner) GroupOf(node string) string { return r.spec.GroupOf(node) }

// Platform returns the simulated platform model the runner invokes on.
func (r *Runner) Platform() *simfaas.Platform { return r.platform }

// Price returns the active pricing model.
func (r *Runner) Price() pricing.Model { return r.price }

// SLOMS returns the workflow's end-to-end SLO in milliseconds.
func (r *Runner) SLOMS() float64 { return r.spec.SLOMS }

// Functions implements search.Evaluator.
func (r *Runner) Functions() []string { return r.spec.FunctionGroups() }

// Limits implements search.Evaluator.
func (r *Runner) Limits() resources.Limits { return r.spec.Limits }

// Base implements search.Evaluator.
func (r *Runner) Base() resources.Assignment { return r.spec.Base.Clone() }

// Evaluate implements search.Evaluator at the runner's default input scale.
func (r *Runner) Evaluate(a resources.Assignment) (search.Result, error) {
	return r.EvaluateScale(a, r.scale)
}

// EvaluateInto is Evaluate writing into a Result the caller owns (see
// search.Result.Reset): a caller that measures many assignments can
// alternate two Results instead of allocating one per run. After an error
// *res holds no usable execution.
func (r *Runner) EvaluateInto(a resources.Assignment, res *search.Result) error {
	return r.evaluate(a, r.scale, r.noiseRNG(), res)
}

// EvaluateScale executes the workflow once under assignment a at the given
// input scale, with measurement noise following the runner's Noise option.
func (r *Runner) EvaluateScale(a resources.Assignment, scale float64) (search.Result, error) {
	return r.fresh(a, scale, r.noiseRNG())
}

// MeanEvaluate runs Evaluate with noise forced off (useful for heatmaps and
// deterministic assertions) regardless of the runner's Noise option. Unlike
// an option flip, the override is threaded through the call, so it never
// mutates runner state.
func (r *Runner) MeanEvaluate(a resources.Assignment) (search.Result, error) {
	return r.fresh(a, r.scale, nil)
}

// noiseRNG is the runner's stream when noise is on, nil otherwise.
func (r *Runner) noiseRNG() *rand.Rand {
	if r.noise {
		return r.rng
	}
	return nil
}

// fresh evaluates into a new Result, the zero Result on error.
func (r *Runner) fresh(a resources.Assignment, scale float64, rng *rand.Rand) (search.Result, error) {
	var res search.Result
	if err := r.evaluate(a, scale, rng, &res); err != nil {
		return search.Result{}, err
	}
	return res, nil
}

// evaluate executes the workflow once on the compiled plan. End-to-end
// latency is the makespan of an event-driven fluid simulation: whenever the
// total vCPU demand of concurrently running containers exceeds the host
// capacity, all running invocations progress at rate capacity/demand
// (processor sharing), stretching their billed durations — which is what
// cgroup CPU shares do on the paper's testbed.
//
// Because every running invocation progresses at the same (time-varying)
// rate, the simulation advances a virtual-work clock vw that accumulates
// processed work per container: an invocation started at vw with runtime T
// completes exactly when the clock reaches vw+T. That deadline is fixed at
// start, so the next event is always the min-heap top — no per-event rescan
// of the running set, and no rewriting of keys when the rate changes.
//
// An OOM kill aborts the workflow: in-flight branches finish, but no new
// node starts afterwards, and downstream nodes are reported Skipped.
//
// The execution is written into *res, which is reset first.
func (r *Runner) evaluate(a resources.Assignment, scale float64, rng *rand.Rand, res *search.Result) error {
	p := r.plan
	s := &r.scratch
	s.reset(p)

	// Resolve the assignment once per group instead of once per node.
	for gi, g := range p.groupNames {
		cfg, ok := a[g]
		if !ok {
			return AssignmentError(fmt.Sprintf("workflow %s: assignment missing group %q (node %q)", r.spec.Name, g, p.groupNode[gi]))
		}
		if !cfg.Valid() {
			return AssignmentError(fmt.Sprintf("workflow %s: invalid config %v for group %q", r.spec.Name, cfg, g))
		}
		s.cfgs = append(s.cfgs, cfg)
	}
	// The node entries are written in place: plan order is the layout.
	res.Reset(p.layout)

	for i, d := range p.indeg0 {
		if d == 0 {
			s.ready = append(s.ready, int32(i))
		}
	}

	now := 0.0    // simulated wall clock (ms)
	vw := 0.0     // virtual-work clock (ms of per-container progress)
	demand := 0.0 // total vCPU demand of the running set
	failed := false

	for {
		if !failed {
			for _, ni := range s.ready {
				cfg := s.cfgs[p.groupIdx[ni]]
				inv, err := r.platform.Invoke(&r.containers[ni], &p.profiles[ni], cfg, scale, rng)
				if err != nil {
					return err
				}
				nr := &res.Nodes[ni]
				nr.Group = p.groups[ni]
				nr.Config = cfg
				nr.ColdStartMS = inv.ColdStartMS
				nr.OOM = inv.OOM
				nr.StartMS = now
				s.state[ni] = stRunning
				s.heap.push(runItem{deadline: vw + inv.RuntimeMS, node: ni})
				demand += cfg.CPU
			}
		} else {
			for _, ni := range s.ready {
				s.state[ni] = stSkipped
			}
		}
		s.ready = s.ready[:0]
		if len(s.heap) == 0 {
			break
		}

		// Processor-sharing rate for the current running set, applied until
		// the next completion.
		rate := 1.0
		if r.cores > 0 && demand > r.cores {
			rate = r.cores / demand
		}
		next := s.heap[0].deadline
		now += (next - vw) / rate
		vw = next

		// Finish everything due at this event (near-simultaneous completions
		// drain as one batch, in topo order via the heap tie-break).
		for len(s.heap) > 0 && s.heap[0].deadline <= vw+1e-9 {
			ni := s.heap.pop().node
			nr := &res.Nodes[ni]
			nr.FinishMS = now
			nr.RuntimeMS = now - nr.StartMS
			nr.Cost = r.price.Invocation(nr.RuntimeMS, nr.Config)
			res.Cost += nr.Cost
			if now > res.E2EMS {
				res.E2EMS = now
			}
			s.state[ni] = stFinished
			demand -= nr.Config.CPU
			if nr.OOM {
				// The kill becomes visible to the orchestrator only now: the
				// workflow fails, in-flight siblings drain, nothing new starts.
				res.OOM = true
				failed = true
				if res.Fail == "" {
					res.Fail = p.ids[ni]
				}
				continue
			}
			for _, si := range p.succs[ni] {
				s.indeg[si]--
				if s.indeg[si] == 0 {
					s.ready = pushReady(s.ready, si)
				}
			}
		}
	}

	// Never-started nodes report as skipped.
	for i, st := range s.state {
		if st != stFinished {
			res.Nodes[i] = search.NodeResult{Group: p.groups[i], Skipped: true}
		}
	}
	return nil
}
