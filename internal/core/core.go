package core

import (
	"aarc/internal/dag"
	"aarc/internal/resources"
	"aarc/internal/search"
)

// Evaluator is what the Graph-Centric Scheduler needs from the platform: a
// plain sample evaluator plus the workflow's DAG topology and the node→group
// mapping. *workflow.Runner satisfies it.
type Evaluator interface {
	search.Evaluator
	// EvaluateInto is Evaluate writing into a Result the caller owns: it
	// resets *res (search.Result.Reset) and fills it in, reusing its
	// entry slice. After an error *res holds no usable execution. AARC
	// measures every probe through it, so a wrapper that embeds an
	// Evaluator to observe Evaluate must override EvaluateInto as well.
	EvaluateInto(a resources.Assignment, res *search.Result) error
	// Graph returns the workflow DAG whose node runtimes weight the
	// critical-path extraction.
	Graph() *dag.Graph
	// GroupOf maps a DAG node to its configuration group.
	GroupOf(node string) string
}

// Options tunes the AARC scheduler and configurator. The zero value is not
// usable; start from DefaultOptions.
type Options struct {
	// MaxTrail is the iteration cap per priority_configuration call
	// (the paper's MAX_TRAIL, Algorithm 2 line 11).
	MaxTrail int
	// FuncTrial is the per-op trial budget (the paper's FUNC_TRIAL,
	// Algorithm 2 line 6): how many failed shrinks an op survives.
	FuncTrial int
	// CPUStep0 is the initial CPU deallocation step in vCPU.
	CPUStep0 float64
	// MemStep0 is the initial memory deallocation step in MB.
	MemStep0 float64
	// SLOMargin is the safety headroom fraction: a probe is accepted only
	// if measured latency stays below SLO·(1−SLOMargin), keeping the final
	// configuration SLO-compliant despite measurement noise.
	SLOMargin float64
	// ValidationRuns re-executes the final configuration this many times
	// after the search; if the mean latency exceeds the SLO (a lucky noisy
	// acceptance slipped through), the scheduler repairs the configuration
	// by restoring the base allocation of the heaviest reconfigured
	// function and re-validating. Zero disables the final validation.
	ValidationRuns int

	// Ablation switches (all false in the paper's configuration).

	// FIFO disables priority ordering: the op queue degenerates to FIFO.
	FIFO bool
	// NoBackoff disables the exponential step back-off: failed ops retry at
	// full step until their trials run out.
	NoBackoff bool
	// CoupledOnly restricts the search to coupled configurations (CPU
	// follows memory at 1 vCPU / 1024 MB), emulating memory-centric
	// platforms inside the AARC machinery.
	CoupledOnly bool
	// NoSubpaths skips detour sub-path scheduling: only the critical path
	// is configured; every other function keeps the base configuration.
	NoSubpaths bool
}

// DefaultOptions returns the configuration used throughout the paper's
// experiments.
func DefaultOptions() Options {
	return Options{
		MaxTrail:       60,
		FuncTrial:      3,
		CPUStep0:       1.0,
		MemStep0:       1024,
		SLOMargin:      0.05,
		ValidationRuns: 3,
	}
}

// normalize fills zero fields with defaults so partially-specified options
// remain usable.
func (o Options) normalize() Options {
	d := DefaultOptions()
	if o.MaxTrail <= 0 {
		o.MaxTrail = d.MaxTrail
	}
	if o.FuncTrial <= 0 {
		o.FuncTrial = d.FuncTrial
	}
	if o.CPUStep0 <= 0 {
		o.CPUStep0 = d.CPUStep0
	}
	if o.MemStep0 <= 0 {
		o.MemStep0 = d.MemStep0
	}
	if o.SLOMargin < 0 {
		o.SLOMargin = 0
	}
	if o.SLOMargin > 0.5 {
		o.SLOMargin = 0.5
	}
	return o
}
