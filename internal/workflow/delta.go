package workflow

import (
	"fmt"

	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// Edge names a directed workflow edge by its endpoint node IDs.
type Edge struct {
	From, To string
}

// NodeAdd describes one node inserted by a Delta.
type NodeAdd struct {
	ID string
	// Group is the configuration group; empty means the node is its own
	// group (the Spec default).
	Group   string
	Profile perfmodel.Profile
}

// Delta is a batch edit against a workflow Spec: the churn primitives in
// internal/workloads emit Deltas and Spec.Apply replays one onto a spec.
// Application order is fixed: edge removals, node removals, node additions,
// edge additions, profile updates, base merges — so a Delta that removes a
// node need not list its incident edges (RemoveNode drops them), and an
// added edge may reference an added node.
type Delta struct {
	RemoveEdges []Edge
	RemoveNodes []string
	AddNodes    []NodeAdd
	AddEdges    []Edge
	// Profiles replaces the performance profile of existing nodes.
	Profiles map[string]perfmodel.Profile
	// Base supplies base configurations, primarily for groups introduced by
	// AddNodes. Entries are merged into the spec's base assignment.
	Base resources.Assignment
}

// Empty reports whether the delta performs no edits.
func (d Delta) Empty() bool {
	return len(d.RemoveEdges) == 0 && len(d.RemoveNodes) == 0 &&
		len(d.AddNodes) == 0 && len(d.AddEdges) == 0 &&
		len(d.Profiles) == 0 && len(d.Base) == 0
}

// Apply replays a delta onto the spec in place, keeping the profile, group
// and base-assignment tables consistent with the mutated DAG: removed nodes
// drop their profile and group entries, base configs whose group lost its
// last member are pruned, and every surviving group must end up with a base
// config (from the existing assignment or d.Base) or Apply errors.
//
// Apply mutates as it goes; on error the spec may be partially edited.
// Callers that need transactionality should Apply against a Clone.
func (s *Spec) Apply(d Delta) error {
	for _, e := range d.RemoveEdges {
		if err := s.G.RemoveEdge(e.From, e.To); err != nil {
			return fmt.Errorf("workflow %s: %w", s.Name, err)
		}
	}
	var retired []string // groups that lost a member and may be orphaned
	for _, id := range d.RemoveNodes {
		g := s.GroupOf(id)
		if err := s.G.RemoveNode(id); err != nil {
			return fmt.Errorf("workflow %s: %w", s.Name, err)
		}
		delete(s.Profiles, id)
		delete(s.Groups, id)
		retired = append(retired, g)
	}
	for _, n := range d.AddNodes {
		if err := n.Profile.Validate(); err != nil {
			return fmt.Errorf("workflow %s: adding node %q: %w", s.Name, n.ID, err)
		}
		if err := s.G.AddNode(n.ID); err != nil {
			return fmt.Errorf("workflow %s: %w", s.Name, err)
		}
		if s.Profiles == nil {
			s.Profiles = make(map[string]perfmodel.Profile)
		}
		s.Profiles[n.ID] = n.Profile
		if n.Group != "" && n.Group != n.ID {
			if s.Groups == nil {
				s.Groups = make(map[string]string)
			}
			s.Groups[n.ID] = n.Group
		}
	}
	for _, e := range d.AddEdges {
		if err := s.G.AddEdge(e.From, e.To); err != nil {
			return fmt.Errorf("workflow %s: %w", s.Name, err)
		}
	}
	for id, p := range d.Profiles {
		if !s.G.HasNode(id) {
			return fmt.Errorf("workflow %s: profile update for unknown node %q", s.Name, id)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("workflow %s: profile update for %q: %w", s.Name, id, err)
		}
		s.Profiles[id] = p
	}
	if len(d.Base) > 0 {
		if s.Base == nil {
			s.Base = make(resources.Assignment, len(d.Base))
		}
		for g, cfg := range d.Base {
			s.Base[g] = cfg
		}
	}
	// Keep the base assignment in lockstep with the live group set without
	// an O(nodes) rescan per delta: only groups that lost a member can
	// become orphaned (prune their base entry so canonical bytes don't
	// drift), and only groups introduced by added nodes can lack coverage —
	// every pre-existing group already had a base config by invariant.
	for _, g := range retired {
		if !s.groupHasMembers(g) {
			delete(s.Base, g)
		}
	}
	for _, n := range d.AddNodes {
		g := s.GroupOf(n.ID)
		if _, ok := s.Base[g]; !ok {
			return fmt.Errorf("workflow %s: group %q has no base config after delta", s.Name, g)
		}
	}
	return nil
}

// groupHasMembers reports whether any live node belongs to group g: the node
// named g itself (unless remapped) or any explicit group-table entry.
func (s *Spec) groupHasMembers(g string) bool {
	if s.G.HasNode(g) && s.GroupOf(g) == g {
		return true
	}
	for _, gg := range s.Groups {
		if gg == g {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the spec: the DAG, profile, group and base
// tables are all copied, so mutating one side (Apply, churn) leaves the
// other untouched.
func (s *Spec) Clone() *Spec {
	out := &Spec{
		Name:   s.Name,
		G:      s.G.Clone(),
		SLOMS:  s.SLOMS,
		Base:   s.Base.Clone(),
		Limits: s.Limits,
	}
	if s.Profiles != nil {
		out.Profiles = make(map[string]perfmodel.Profile, len(s.Profiles))
		for k, v := range s.Profiles {
			out.Profiles[k] = v
		}
	}
	if s.Groups != nil {
		out.Groups = make(map[string]string, len(s.Groups))
		for k, v := range s.Groups {
			out.Groups[k] = v
		}
	}
	return out
}
