package aarc

import (
	"io"

	"aarc/internal/dag"
	"aarc/internal/inputaware"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
	"aarc/internal/search"
	"aarc/internal/workflow"
	"aarc/internal/workloads"

	// The built-in search methods self-register with the search registry;
	// importing them here makes every method resolvable through the public
	// facade (Methods, NewSearcher, WithMethod) without touching internal/.
	_ "aarc/internal/baselines/bo"
	_ "aarc/internal/baselines/maff"
	_ "aarc/internal/baselines/naive"
	_ "aarc/internal/core"
)

// The facade re-exports the implementation's data types as aliases, so code
// outside this module can name specs, configurations and traces while the
// implementation stays under internal/.
type (
	// Spec is a workflow definition: DAG, per-node performance profiles,
	// configuration groups, SLO and admissible configuration limits.
	Spec = workflow.Spec
	// Runner executes a Spec on the simulated serverless platform. It is
	// the Evaluator behind every search; one runner per goroutine.
	Runner = workflow.Runner
	// Graph is the workflow DAG.
	Graph = dag.Graph
	// Profile is the analytic performance model of one function.
	Profile = perfmodel.Profile
	// Config is a decoupled vCPU/memory configuration for one function.
	Config = resources.Config
	// Limits is the admissible configuration box/grid.
	Limits = resources.Limits
	// Assignment maps configuration groups to Configs.
	Assignment = resources.Assignment
	// Result is the measured outcome of one workflow execution.
	Result = search.Result
	// Sample is one probe of the configuration space.
	Sample = search.Sample
	// Trace is the ordered record of all samples a search performed.
	Trace = search.Trace
	// Searcher is a resource-configuration search method.
	Searcher = search.Searcher
	// InputClass is one input-size class of the input-aware engine.
	InputClass = inputaware.Class
	// InputRequest is one incoming invocation with its analyzed input scale.
	InputRequest = inputaware.Request
	// InputEngine dispatches requests to per-input-class configurations.
	InputEngine = inputaware.Engine
)

// NewGraph returns an empty workflow DAG to build a custom Spec on.
func NewGraph() *Graph { return dag.New() }

// DefaultLimits returns the paper's admissible configuration grid.
func DefaultLimits() Limits { return resources.DefaultLimits() }

// UniformAssignment assigns the same configuration to every listed group.
func UniformAssignment(groups []string, cfg Config) Assignment {
	return resources.Uniform(groups, cfg)
}

// Workload returns one of the built-in evaluation workflows by name:
// "chatbot", "ml-pipeline" or "video-analysis".
func Workload(name string) (*Spec, error) { return workloads.ByName(name) }

// WorkloadNames lists the built-in workloads in presentation order.
func WorkloadNames() []string {
	return []string{"chatbot", "ml-pipeline", "video-analysis"}
}

// ScaleOptions parameterizes the synthetic scale-regime workload generator
// (topology family, node count, seed, edge density, heavy-tailed profiles).
type ScaleOptions = workloads.ScaleOptions

// ScaleTopology names a generated DAG family: "layered", "fanout", "chain",
// "diamond" or "random".
type ScaleTopology = workloads.Topology

// ScaleWorkload deterministically generates a synthetic workflow of the
// requested family and exact node count — the same options produce
// byte-identical canonical specs on every run. It extends the built-in
// workloads to the 10k-node regime.
func ScaleWorkload(opts ScaleOptions) (*Spec, error) { return workloads.Scale(opts) }

// ScaleTopologies lists the generated topology families in a stable order.
func ScaleTopologies() []ScaleTopology { return workloads.Topologies() }

// LoadSpec reads a JSON workflow definition from a file.
func LoadSpec(path string) (*Spec, error) { return workflow.LoadSpec(path) }

// DecodeSpec reads a JSON workflow definition from a reader.
func DecodeSpec(r io.Reader) (*Spec, error) { return workflow.DecodeSpec(r) }

// EncodeSpec writes a Spec as its JSON definition.
func EncodeSpec(w io.Writer, spec *Spec) error { return workflow.EncodeSpec(w, spec) }

// Methods lists the registered search methods, sorted. The method packages
// self-register: the five built-ins ("aarc", "bo", "maff", "random",
// "grid") are always present through this package's imports.
func Methods() []string { return search.Methods() }

// NewSearcher resolves a registered search method by (case-insensitive)
// name and builds it with the given seed. Most callers want Configure
// instead; NewSearcher is for code that drives a Searcher directly against
// its own Evaluator.
func NewSearcher(name string, seed uint64) (Searcher, error) { return search.New(name, seed) }

// MethodVersion returns a registered method's implementation version.
// The serving layer folds it into recommendation fingerprints, so a
// version bump self-invalidates every cached — including persisted —
// recommendation the previous implementation produced.
func MethodVersion(name string) (int, error) { return search.Version(name) }

// DefaultVideoClasses returns the light / middle / heavy input classes of
// the paper's Video Analysis experiment.
func DefaultVideoClasses() []InputClass { return inputaware.DefaultVideoClasses() }

// DOT renders the spec's DAG in Graphviz DOT format, with nodes weighted by
// their noise-free base-configuration runtimes.
func DOT(spec *Spec) string {
	weights := make(map[string]float64, spec.G.NumNodes())
	for _, id := range spec.G.Nodes() {
		p := spec.Profiles[id]
		cfg := spec.Base[spec.GroupOf(id)]
		if t, err := p.MeanRuntime(cfg, 1); err == nil {
			weights[id] = t
		}
	}
	return dag.DOT(spec.G, weights, nil)
}
