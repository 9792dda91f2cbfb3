// Package inputaware implements the §IV-D Input-Aware Configuration Engine
// plugin: for input-sensitive workflows (Video Analysis in the paper), the
// engine analyzes input characteristics (bitrate, duration — abstracted here
// as an input scale), sorts inputs into size classes, runs the Graph-Centric
// Scheduler + Priority Configurator once per class, and dispatches each
// arriving request to the configuration of its class.
package inputaware

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/workflow"
)

// Class is one input-size class with a representative scale factor that
// multiplies the workflow's input-sensitive work, I/O and memory footprints.
type Class struct {
	Name  string
	Scale float64
}

// DefaultVideoClasses returns the light / middle / heavy classes of the
// paper's Video Analysis experiment.
func DefaultVideoClasses() []Class {
	return []Class{
		{Name: "light", Scale: 0.4},
		{Name: "middle", Scale: 1.0},
		{Name: "heavy", Scale: 1.6},
	}
}

// Request is one incoming invocation with its analyzed input scale.
type Request struct {
	ID    int
	Scale float64
}

// Engine holds per-class configurations for one workflow and dispatches
// requests to them.
type Engine struct {
	classes []Class                         // sorted ascending by scale
	configs map[string]resources.Assignment // class name -> assignment
	traces  map[string]*search.Trace        // class name -> search trace
}

// Configure profiles and configures the workflow once per input class using
// the given searcher (AARC in the paper; any search.Searcher works). The
// runner's spec must be input-sensitive for per-class configs to differ.
// Configure consumes simulated time: the per-class search traces are
// retained for accounting.
//
// The context and search options apply to every per-class search
// (sopts.SLOMS defaults to the spec's SLO when zero); cancelling ctx aborts
// the remaining classes and returns ctx.Err().
func Configure(ctx context.Context, spec *workflow.Spec, opts workflow.RunnerOptions, searcher search.Searcher, sopts search.Options, classes []Class) (*Engine, error) {
	if len(classes) == 0 {
		return nil, errors.New("inputaware: need at least one input class")
	}
	if sopts.SLOMS <= 0 {
		sopts.SLOMS = spec.SLOMS
	}
	e := &Engine{
		classes: append([]Class(nil), classes...),
		configs: make(map[string]resources.Assignment, len(classes)),
		traces:  make(map[string]*search.Trace, len(classes)),
	}
	sort.Slice(e.classes, func(i, j int) bool { return e.classes[i].Scale < e.classes[j].Scale })

	for _, cls := range e.classes {
		if cls.Scale <= 0 {
			return nil, fmt.Errorf("inputaware: class %q has non-positive scale %v", cls.Name, cls.Scale)
		}
		o := opts
		o.InputScale = cls.Scale
		runner, err := workflow.NewRunner(spec, o)
		if err != nil {
			return nil, err
		}
		outcome, err := searcher.Search(ctx, runner, sopts)
		if err != nil {
			return nil, fmt.Errorf("inputaware: configuring class %q: %w", cls.Name, err)
		}
		e.configs[cls.Name] = outcome.Best
		e.traces[cls.Name] = outcome.Trace
	}
	return e, nil
}

// Classes returns the engine's classes sorted ascending by scale.
func (e *Engine) Classes() []Class { return append([]Class(nil), e.classes...) }

// Config returns the assignment configured for a class name.
func (e *Engine) Config(class string) (resources.Assignment, bool) {
	a, ok := e.configs[class]
	return a, ok
}

// Trace returns the search trace recorded while configuring a class.
func (e *Engine) Trace(class string) (*search.Trace, bool) {
	t, ok := e.traces[class]
	return t, ok
}

// Classify maps an analyzed input scale to the engine's class for it (see
// the package-level Classify).
func (e *Engine) Classify(scale float64) Class { return Classify(e.classes, scale) }

// Classify maps an analyzed input scale to the smallest class that covers
// it (first class whose scale is >= the input's), falling back to the
// largest class for oversized inputs. Covering from above keeps the SLO safe
// at the price of slight over-provisioning within a class. classes must be
// non-empty and sorted ascending by scale.
func Classify(classes []Class, scale float64) Class {
	for _, c := range classes {
		if c.Scale >= scale-1e-9 {
			return c
		}
	}
	return classes[len(classes)-1]
}

// Dispatch returns the configuration for one request.
func (e *Engine) Dispatch(req Request) (Class, resources.Assignment) {
	cls := e.Classify(req.Scale)
	return cls, e.configs[cls.Name]
}

// TotalSearchRuntimeMS sums the simulated time spent configuring all
// classes (the plugin's offline cost).
func (e *Engine) TotalSearchRuntimeMS() float64 {
	s := 0.0
	for _, t := range e.traces {
		s += t.TotalRuntimeMS()
	}
	return s
}
