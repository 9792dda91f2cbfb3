package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"aarc"
	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/workflow"
)

// whatifRuns is how many Runner.Evaluate calls the probe times per body
// under a what-if assignment.
const whatifRuns = 16

// probeStats sums the probe phase's direct calls into each layer.
type probeStats struct {
	n                                                              int
	decode, canonical, fingerprint, compile, search, evals, whatif time.Duration
	samples, evalCount                                             int
}

// countingEvaluator times every evaluation a search makes. Embedding the
// Runner keeps the DAG accessors the AARC searcher asks for.
type countingEvaluator struct {
	*workflow.Runner
	n    int
	busy time.Duration
}

func (c *countingEvaluator) Evaluate(a resources.Assignment) (search.Result, error) {
	t0 := time.Now()
	r, err := c.Runner.Evaluate(a)
	c.busy += time.Since(t0)
	c.n++
	return r, err
}

// probe re-runs one served spec through each layer's public functions
// directly, one call at a time, with the search and runner options
// cmd/aarcd uses, and checks that the served assignment equals the direct
// search's. rec, when non-nil, records a span per call.
func probe(s served, rec *recorder, st *probeStats) error {
	span := func(name string, parent uint64, t0, t1 time.Time) {
		if rec != nil {
			rec.record(name, 0, parent, t0, t1, false, false)
		}
	}
	var parent uint64
	if rec != nil {
		parent = rec.newID()
	}
	t0 := time.Now()
	spec, err := workflow.DecodeSpec(bytes.NewReader(s.body.spec))
	if err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := workflow.CanonicalJSON(spec); err != nil {
		return err
	}
	t2 := time.Now()
	if _, err := workflow.Fingerprint(spec); err != nil {
		return err
	}
	t3 := time.Now()
	runner, err := workflow.NewRunner(spec, workflow.RunnerOptions{HostCores: 96, Noise: true, Seed: 42})
	if err != nil {
		return err
	}
	t4 := time.Now()
	searcher, err := search.New("aarc", 42)
	if err != nil {
		return err
	}
	ev := &countingEvaluator{Runner: runner}
	out, err := searcher.Search(context.Background(), ev, search.Options{SLOMS: spec.SLOMS})
	if err != nil {
		return err
	}
	t5 := time.Now()
	moved := moveOneCPU(out.Best, st.n)
	for k := 0; k < whatifRuns; k++ {
		if _, err := runner.Evaluate(moved); err != nil {
			return err
		}
	}
	t6 := time.Now()

	span("workflow.decode", parent, t0, t1)
	span("workflow.canonical", parent, t1, t2)
	span("workflow.fingerprint", parent, t2, t3)
	span("workflow.compile", parent, t3, t4)
	span("search.search", parent, t4, t5)
	span("workflow.evaluate", parent, t5, t6)
	if rec != nil {
		rec.record("probe", parent, 0, t0, t6, false, false)
	}
	st.n++
	st.decode += t1.Sub(t0)
	st.canonical += t2.Sub(t1)
	st.fingerprint += t3.Sub(t2)
	st.compile += t4.Sub(t3)
	st.search += t5.Sub(t4)
	st.evals += ev.busy
	st.evalCount += ev.n
	st.samples += out.Trace.Len()
	st.whatif += t6.Sub(t5)

	if !out.Best.Equal(aarc.Assignment(s.rec.ResourceAssignment())) {
		return fmt.Errorf("probe: served assignment for %s differs from a direct search", s.rec.Fingerprint)
	}
	return nil
}
