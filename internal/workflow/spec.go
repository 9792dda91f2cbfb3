// Package workflow ties the substrates together: a Spec couples a DAG with
// per-node performance profiles, configuration groups, an SLO and a base
// assignment; a Runner executes the workflow on the simulated platform under
// a candidate assignment, applying host CPU contention with a fluid
// processor-sharing model, and implements search.Evaluator.
package workflow

import (
	"errors"
	"fmt"
	"sort"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// Spec is a complete serverless workflow definition as a developer would
// submit it (step ❶ in Fig. 4), plus the profiling metadata the simulator
// needs in place of real function code.
type Spec struct {
	Name string
	// G is the workflow DAG; node IDs are invocation instances (scatter
	// instances of one function are distinct nodes).
	G *dag.Graph
	// Profiles maps each node to its performance model.
	Profiles map[string]perfmodel.Profile
	// Groups maps each node to its configuration group (the "function" the
	// developer configures). Scatter instances share a group and therefore a
	// configuration. Missing entries default to the node's own ID.
	Groups map[string]string
	// SLOMS is the end-to-end latency objective in milliseconds.
	SLOMS float64
	// Base is the over-provisioned per-group base configuration assigned in
	// Algorithm 1 lines 2–4.
	Base resources.Assignment
	// Limits is the admissible configuration grid.
	Limits resources.Limits
}

// GroupOf returns the configuration group of a node.
func (s *Spec) GroupOf(node string) string {
	if g, ok := s.Groups[node]; ok && g != "" {
		return g
	}
	return node
}

// FunctionGroups returns the distinct configuration groups in a stable
// (sorted) order.
func (s *Spec) FunctionGroups() []string {
	set := make(map[string]bool)
	for _, id := range s.G.Nodes() {
		set[s.GroupOf(id)] = true
	}
	out := make([]string, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// NodesInGroup returns the node IDs belonging to a group, in DAG insertion
// order.
func (s *Spec) NodesInGroup(group string) []string {
	var out []string
	for _, id := range s.G.Nodes() {
		if s.GroupOf(id) == group {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks structural consistency: a valid DAG, a profile for every
// node, a base config for every group, limits sanity and a positive SLO.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("workflow: spec needs a name")
	}
	if s.G == nil {
		return errors.New("workflow: spec needs a DAG")
	}
	if err := s.G.Validate(); err != nil {
		return fmt.Errorf("workflow %s: %w", s.Name, err)
	}
	if s.SLOMS <= 0 {
		return fmt.Errorf("workflow %s: non-positive SLO %v", s.Name, s.SLOMS)
	}
	if err := s.Limits.Validate(); err != nil {
		return fmt.Errorf("workflow %s: %w", s.Name, err)
	}
	for _, id := range s.G.Nodes() {
		p, ok := s.Profiles[id]
		if !ok {
			return fmt.Errorf("workflow %s: node %q has no profile", s.Name, id)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workflow %s: node %q: %w", s.Name, id, err)
		}
	}
	groups := s.FunctionGroups()
	for _, g := range groups {
		cfg, ok := s.Base[g]
		if !ok {
			return fmt.Errorf("workflow %s: group %q has no base config", s.Name, g)
		}
		if !cfg.Valid() || !s.Limits.Contains(cfg) {
			return fmt.Errorf("workflow %s: group %q base config %v invalid or outside limits", s.Name, g, cfg)
		}
	}
	// Sorted so an invalid spec reports the same violation every run:
	// Validate guards CanonicalJSON, and a map-order-dependent error
	// would make even failures nondeterministic
	// (TestValidateErrorStableUnderMapOrderPerturbation).
	nodes := make([]string, 0, len(s.Groups))
	for node := range s.Groups {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		g := s.Groups[node]
		if !s.G.HasNode(node) {
			return fmt.Errorf("workflow %s: group mapping for unknown node %q", s.Name, node)
		}
		if g == "" {
			return fmt.Errorf("workflow %s: empty group for node %q", s.Name, node)
		}
	}
	return nil
}
