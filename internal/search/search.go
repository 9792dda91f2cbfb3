// Package search defines the abstractions shared by AARC and the baseline
// configuration searchers: the Evaluator that executes a workflow under a
// candidate assignment, the per-sample Trace that every experiment figure is
// derived from, the Searcher interface all methods implement, and the
// registry through which methods are resolved by name.
//
// # Search contract
//
// A Searcher runs under a context.Context and an Options value carrying the
// latency SLO, optional sample/simulated-time budgets, and an optional
// per-sample Progress callback. Enforcement is centralized in Trace.Record:
// every searcher records each probe through it, and Record reports — after
// appending the sample and firing Progress — whether the search must halt
// (context cancelled, or a budget consumed). Searchers that receive a halt
// from Record stop immediately and return their best-so-far Outcome with
// the partial trace: a nil error when a budget was consumed (a normal stop),
// or ctx.Err() when the context was cancelled. A trace can therefore never
// exceed Options.MaxSamples, and never starts a new probe once
// Options.MaxSimCostMS simulated milliseconds have been spent.
package search

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"

	"aarc/internal/resources"
)

// NodeResult is the measured outcome of one function invocation inside a
// workflow execution.
type NodeResult struct {
	Group       string // configuration group (function) the node belongs to
	Config      resources.Config
	RuntimeMS   float64 // billed duration, including cold start and contention stretch
	ColdStartMS float64 // cold-start portion of the runtime
	Cost        float64
	StartMS     float64 // start time on the simulated clock
	FinishMS    float64
	OOM         bool
	Skipped     bool // true when an upstream OOM aborted the workflow first
}

// Layout names the entries of a Result's Nodes: the node ID of each entry,
// and the reverse index. An evaluator builds one when it compiles a workflow
// and shares it, read-only, with every Result it returns.
type Layout struct {
	ids   []string
	index map[string]int32
}

// NewLayout returns the layout whose entry i is node ids[i]. The IDs must be
// distinct; the layout keeps the slice, which the caller must not mutate.
func NewLayout(ids []string) *Layout {
	index := make(map[string]int32, len(ids))
	for i, id := range ids {
		index[id] = int32(i)
	}
	return &Layout{ids: ids, index: index}
}

// Index returns the entry index of a node ID.
func (l *Layout) Index(id string) (int, bool) {
	i, ok := l.index[id]
	return int(i), ok
}

// Result is the outcome of one end-to-end workflow execution.
type Result struct {
	E2EMS float64 // makespan of the (possibly aborted) execution
	Cost  float64 // total cost over all executed invocations
	// Nodes holds one entry per workflow node; Layout names them. Node
	// looks one up by ID.
	Nodes  []NodeResult
	Layout *Layout
	OOM    bool   // some invocation was OOM-killed
	Fail   string // ID of the first failed node, if any

	// weights memoizes NodeWeights (nil: build on every call). Copies of a
	// Result share it, so NewResult's map is built at most once per
	// execution, however often it is asked for.
	weights *weightsMemo
}

type weightsMemo struct {
	once sync.Once
	w    map[string]float64
}

// NewResult returns an execution result over layout l, with one zero entry
// per node, whose NodeWeights map is built at most once and then shared by
// every copy of the Result. Evaluators fill in the entries and totals
// before handing the Result out; nothing may change an entry's runtime
// after the first NodeWeights call.
func NewResult(l *Layout) Result {
	var r Result
	r.Reset(l)
	return r
}

// Reset makes r what NewResult(l) returns, reusing r's entry slice when it
// is large enough, so an evaluator can write a new execution into a
// Result its caller owns. Every copy of r shares that slice, and so sees
// the new entries. r gets a fresh NodeWeights memo: a copy that built its
// weights before the reset keeps them, and r never hands out the old ones.
func (r *Result) Reset(l *Layout) {
	nodes := r.Nodes
	if cap(nodes) < len(l.ids) {
		nodes = make([]NodeResult, len(l.ids))
	} else {
		nodes = nodes[:len(l.ids)]
		clear(nodes)
	}
	*r = Result{Nodes: nodes, Layout: l, weights: new(weightsMemo)}
}

// Node returns the result of the node with the given ID; the zero
// NodeResult when the execution has no such node.
func (r Result) Node(id string) NodeResult {
	if r.Layout == nil {
		return NodeResult{}
	}
	i, ok := r.Layout.index[id]
	if !ok {
		return NodeResult{}
	}
	return r.Nodes[i]
}

// PathRuntimeMS sums the runtimes of the listed nodes (a path through the
// DAG). Skipped nodes contribute zero.
func (r Result) PathRuntimeMS(path []string) float64 {
	s := 0.0
	for _, id := range path {
		s += r.Node(id).RuntimeMS
	}
	return s
}

// SumRuntimeMS is PathRuntimeMS over entry indices: it sums the runtimes
// of r.Nodes[i] for each i of idx, in that order.
func (r *Result) SumRuntimeMS(idx []int32) float64 {
	s := 0.0
	for _, i := range idx {
		s += r.Nodes[i].RuntimeMS
	}
	return s
}

// GroupSteadyCost sums the steady-state cost of a group: the billed cost
// with each node's cold-start portion removed pro rata, in Layout order.
// Configuration searchers compare steady-state costs so that the one-off
// cold start a configuration change triggers does not masquerade as a
// recurring cost increase.
func (r Result) GroupSteadyCost(group string) float64 {
	s := 0.0
	for i := range r.Nodes {
		if nr := &r.Nodes[i]; nr.Group == group && nr.RuntimeMS > 0 {
			s += nr.steadyCost()
		}
	}
	return s
}

// SumSteadyCost is GroupSteadyCost over entry indices: given the indices
// of a group's entries in Layout order, it adds the same terms in the same
// order.
func (r *Result) SumSteadyCost(idx []int32) float64 {
	s := 0.0
	for _, i := range idx {
		if nr := &r.Nodes[i]; nr.RuntimeMS > 0 {
			s += nr.steadyCost()
		}
	}
	return s
}

// steadyCost is the entry's cost with its cold-start portion removed pro
// rata; the entry must have a positive runtime.
func (nr *NodeResult) steadyCost() float64 {
	warmFrac := (nr.RuntimeMS - nr.ColdStartMS) / nr.RuntimeMS
	if warmFrac < 0 {
		warmFrac = 0
	}
	return nr.Cost * warmFrac
}

// NodeWeights returns runtime weights per node ID, for critical-path
// extraction over the executed DAG. On a Result built by NewResult every
// call, on any copy, returns the same map, so callers must treat it as
// read-only.
func (r Result) NodeWeights() map[string]float64 {
	if r.weights == nil {
		return r.buildWeights()
	}
	m := r.weights
	m.once.Do(func() { m.w = r.buildWeights() })
	return m.w
}

func (r Result) buildWeights() map[string]float64 {
	w := make(map[string]float64, len(r.Nodes))
	for i, nr := range r.Nodes {
		w[r.Layout.ids[i]] = nr.RuntimeMS
	}
	return w
}

// Evaluator executes a workflow under a candidate assignment. Evaluate is
// the only way searchers observe the system; the returned error is reserved
// for misuse (unknown group, invalid config) — OOM kills are reported
// in-band through Result.
type Evaluator interface {
	// Evaluate runs the workflow once with the given per-group assignment.
	Evaluate(a resources.Assignment) (Result, error)
	// Functions lists the configurable function groups in a stable order.
	Functions() []string
	// Limits returns the admissible configuration box/grid.
	Limits() resources.Limits
	// Base returns the over-provisioned base assignment (Algorithm 1 line 3).
	Base() resources.Assignment
}

// Options bounds and observes one search. The zero value of every field but
// SLOMS means "unlimited / none": no sample budget, no simulated-time
// budget, no progress callback.
type Options struct {
	// SLOMS is the end-to-end latency SLO in milliseconds. Required: every
	// searcher rejects a non-positive SLO.
	SLOMS float64
	// MaxSamples caps the number of recorded samples. The search halts as
	// soon as the trace holds MaxSamples samples; a trace never exceeds it.
	// Zero means unlimited.
	MaxSamples int
	// MaxSimCostMS caps the total simulated wall time spent sampling
	// (Trace.TotalRuntimeMS). The sample that crosses the budget is kept —
	// its cost was already paid — but no further probe starts. Zero means
	// unlimited.
	MaxSimCostMS float64
	// Progress, when non-nil, is invoked synchronously from Trace.Record
	// with every sample as it is recorded (before budget/cancellation
	// checks). It must not retain the sample's Assignment map beyond the
	// call if the caller mutates assignments, and it must be fast: it runs
	// on the search's hot path.
	Progress func(Sample)
	// Summary makes the trace keep no samples: Samples stays empty and no
	// assignment is cloned, while Len, TotalRuntimeMS and TotalCost read
	// the running totals every trace keeps. Like Progress it cannot
	// change a search, so CanonicalJSON leaves it out.
	Summary bool
}

// ErrBudgetExhausted is the sentinel wrapped by Trace.Record when a sample
// or simulated-time budget is consumed. Searchers translate it into a normal
// (nil-error) stop via StopCause.
var ErrBudgetExhausted = errors.New("search: budget exhausted")

// Halted reports whether err is a Trace.Record enforcement signal — budget
// exhaustion or context cancellation — as opposed to a broken evaluation.
// Searchers use it to distinguish "stop and return the partial outcome"
// from a genuine failure.
func Halted(err error) bool {
	return errors.Is(err, ErrBudgetExhausted) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// StopCause maps a Trace.Record enforcement error to the error a Searcher
// returns alongside its partial Outcome: nil for budget exhaustion (a normal
// stop), the context's error when the context was cancelled, and err itself
// otherwise.
func StopCause(err error) error {
	if errors.Is(err, ErrBudgetExhausted) {
		return nil
	}
	return err
}

// An InfeasibleError is a searcher's refusal of its input: the workflow
// cannot be configured as submitted (AARC's base configuration OOMs or
// misses the SLO). It is the caller's input at fault, not the searcher.
type InfeasibleError string

func (e InfeasibleError) Error() string { return string(e) }

// Sample is one probe of the configuration space.
type Sample struct {
	Index      int
	Assignment resources.Assignment
	E2EMS      float64
	Cost       float64
	OOM        bool
	Accepted   bool   // the searcher kept this configuration
	Note       string // free-form: "init", "revert cpu classify", ...
}

// Trace is the ordered record of all samples a search performed. Figures 3,
// 5, 6 and 7 are all derived from traces.
//
// A Trace built by NewTrace is additionally the search's single enforcement
// point: Record checks the bound context and budgets and tells the searcher
// when to halt. A zero-value Trace still records but never halts.
type Trace struct {
	Method   string
	Workload string
	Samples  []Sample // empty under Options.Summary

	ctx   context.Context // nil: never cancelled
	opts  Options         // zero: no budgets, no progress, full samples
	n     int             // samples recorded
	simMS float64         // sum of the samples' E2EMS, in sample order
	cost  float64         // sum of the samples' Cost, in sample order
}

// NewTrace returns a trace bound to the search's context and options, ready
// to enforce them on every Record call.
func NewTrace(ctx context.Context, method string, opts Options) *Trace {
	return &Trace{Method: method, ctx: ctx, opts: opts}
}

// Record appends a sample, assigning its index, fires the Progress callback,
// and then enforces the bound context and budgets. The assignment is cloned
// so later mutation by the searcher cannot corrupt the trace. Under
// Options.Summary no sample is kept, and the assignment is cloned only
// for a Progress callback.
//
// A non-nil return is the halt signal: ctx.Err() when the bound context is
// done, or an error wrapping ErrBudgetExhausted when the sample or
// simulated-time budget is consumed. The sample that triggered the halt is
// already part of the trace; the searcher must stop probing and return its
// best-so-far outcome with StopCause(err).
func (t *Trace) Record(a resources.Assignment, r Result, accepted bool, note string) error {
	if t.KeepsSamples() {
		s := Sample{
			Index:      t.n,
			Assignment: a.Clone(),
			E2EMS:      r.E2EMS,
			Cost:       r.Cost,
			OOM:        r.OOM,
			Accepted:   accepted,
			Note:       note,
		}
		if !t.opts.Summary {
			t.Samples = append(t.Samples, s)
		}
		if t.opts.Progress != nil {
			t.opts.Progress(s)
		}
	}
	t.n++
	t.simMS += r.E2EMS
	t.cost += r.Cost
	if t.ctx != nil {
		if err := t.ctx.Err(); err != nil {
			return err
		}
	}
	if t.opts.MaxSamples > 0 && t.n >= t.opts.MaxSamples {
		return fmt.Errorf("%w: sample budget %d consumed", ErrBudgetExhausted, t.opts.MaxSamples)
	}
	if t.opts.MaxSimCostMS > 0 && t.simMS >= t.opts.MaxSimCostMS {
		return fmt.Errorf("%w: simulated-time budget %.0f ms consumed", ErrBudgetExhausted, t.opts.MaxSimCostMS)
	}
	return nil
}

// KeepsSamples reports whether anything reads a sample's assignment and
// note: the trace keeps its samples, or a Progress callback sees them. A
// searcher may skip building a note when it does not.
func (t *Trace) KeepsSamples() bool { return !t.opts.Summary || t.opts.Progress != nil }

// Len returns the number of samples (the paper's "sample count").
func (t *Trace) Len() int { return t.n }

// TotalRuntimeMS is the total simulated wall time spent sampling — the
// quantity of Fig. 5a ("total runtime of the sampling process").
func (t *Trace) TotalRuntimeMS() float64 { return t.simMS }

// TotalCost is the total cost incurred while sampling — Fig. 5b.
func (t *Trace) TotalCost() float64 { return t.cost }

// RuntimeSeries returns the per-sample end-to-end runtimes (Fig. 6).
func (t *Trace) RuntimeSeries() []float64 {
	out := make([]float64, len(t.Samples))
	for i, smp := range t.Samples {
		out[i] = smp.E2EMS
	}
	return out
}

// CostSeries returns the per-sample workflow costs (Fig. 7).
func (t *Trace) CostSeries() []float64 {
	out := make([]float64, len(t.Samples))
	for i, smp := range t.Samples {
		out[i] = smp.Cost
	}
	return out
}

// WriteCSV emits the trace as CSV with a header row.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "e2e_ms", "cost", "oom", "accepted", "note", "assignment"}); err != nil {
		return err
	}
	for _, s := range t.Samples {
		rec := []string{
			strconv.Itoa(s.Index),
			strconv.FormatFloat(s.E2EMS, 'f', 3, 64),
			strconv.FormatFloat(s.Cost, 'f', 3, 64),
			strconv.FormatBool(s.OOM),
			strconv.FormatBool(s.Accepted),
			s.Note,
			s.Assignment.String(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Outcome bundles what a searcher returns.
type Outcome struct {
	Best  resources.Assignment
	Trace *Trace
	// Final is the last measurement of Best the searcher observed, so
	// callers can report validated numbers without re-running Evaluate
	// (which would perturb the evaluator's RNG stream). It is the zero
	// Result only when the searcher never measured the assignment it
	// returned (possible for the naive baselines falling back to the base
	// configuration after finding no feasible sample).
	Final Result
}

// Searcher is a resource-configuration search method (AARC, BO, MAFF, ...).
type Searcher interface {
	// Name identifies the method in tables and figures ("AARC", "BO", "MAFF").
	Name() string
	// Search explores configurations of ev's workflow subject to
	// opts.SLOMS and the opts budgets, recording every probe through a
	// context-bound Trace. It returns the chosen assignment, the sampling
	// trace, and the last measurement of that assignment. When ctx is
	// cancelled mid-search the partial outcome is returned together with
	// ctx.Err(); when a budget runs out the partial outcome is returned
	// with a nil error.
	Search(ctx context.Context, ev Evaluator, opts Options) (Outcome, error)
}

// ValidateAssignment checks that a configures exactly the evaluator's
// function groups with valid, in-limits configurations.
func ValidateAssignment(ev Evaluator, a resources.Assignment) error {
	lim := ev.Limits()
	groups := ev.Functions()
	if len(a) != len(groups) {
		return fmt.Errorf("search: assignment has %d groups, workflow has %d", len(a), len(groups))
	}
	for _, g := range groups {
		cfg, ok := a[g]
		if !ok {
			return fmt.Errorf("search: assignment missing group %q", g)
		}
		if !cfg.Valid() {
			return fmt.Errorf("search: invalid config %v for group %q", cfg, g)
		}
		if !lim.Contains(cfg) {
			return fmt.Errorf("search: config %v for group %q outside limits", cfg, g)
		}
	}
	return nil
}
