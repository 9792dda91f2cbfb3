package flow

import "testing"

// intLattice is the chain lattice over ints ordered by ≤ with an
// explicit top: bottom ⊏ 0 ⊏ 1 ⊏ 2 ⊏ ... ⊏ top, Join = max. The
// ascending chain is infinite, so a transfer function that increments
// around a loop back edge never converges — exactly what the termination
// test needs.
//
// Elements: nil = bottom, {v, false} = the value v, {_, true} = top.
type intVal struct {
	v   int
	top bool
}

type intLattice struct{}

func (intLattice) Bottom() *intVal { return nil }

func (intLattice) Join(a, b *intVal) *intVal {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.top || b.top:
		return &intVal{top: true}
	case a.v >= b.v:
		return a
	default:
		return b
	}
}

func (intLattice) Equal(a, b *intVal) bool {
	switch {
	case a == nil || b == nil:
		return a == b
	default:
		return a.top == b.top && (a.top || a.v == b.v)
	}
}

// TestFixpointWidening is the termination test: the engine has no
// widening operator, so a counting loop over a lattice with an infinite
// ascending chain never converges, and the engine must stop at MaxIter
// and say so with Converged=false.
func TestFixpointWidening(t *testing.T) {
	g := New(parseBody(t, `for cond() {
	inc()
}`))
	t.Run("without-widening-hits-MaxIter", func(t *testing.T) {
		res := Analysis[*intVal]{
			Lattice: intLattice{},
			Transfer: func(b *Block, in *intVal) *intVal {
				if b.Kind == "for.body" && in != nil && !in.top {
					return &intVal{v: in.v + 1} // the ascending chain
				}
				return in
			},
			Entry:   &intVal{v: 0},
			MaxIter: 100,
		}.Forward(g)
		if res.Converged {
			t.Fatalf("expected non-convergence without widening; head in-state %+v after %d iterations",
				res.In[2], res.Iterations)
		}
		if res.Iterations < 100 {
			t.Fatalf("stopped after %d iterations, want MaxIter=100 visits", res.Iterations)
		}
	})
}

// TestFixpointBranchJoin checks the basic join: the merge point takes
// the least upper bound of the branch out-states.
func TestFixpointBranchJoin(t *testing.T) {
	g := New(parseBody(t, `if c() {
	a()
} else {
	b()
}
after()`))

	res := Analysis[*intVal]{
		Lattice: intLattice{},
		Transfer: func(b *Block, in *intVal) *intVal {
			switch b.Kind {
			case "if.then":
				return &intVal{v: 7}
			case "if.else":
				return &intVal{v: 8}
			}
			return in
		},
		Entry: &intVal{v: 0},
	}.Forward(g)
	if !res.Converged {
		t.Fatal("trivial CFG did not converge")
	}
	// if.done joins {7} and {8} → max, {8}.
	join := res.In[3]
	if join == nil || join.top || join.v != 8 {
		t.Fatalf("join of branch states = %+v, want {8}", join)
	}
}

// TestEdgeRefinement checks the Edge hook: the true edge of the branch
// refines the state, the false edge keeps it.
func TestEdgeRefinement(t *testing.T) {
	g := New(parseBody(t, `if c() {
	a()
}
after()`))

	res := Analysis[*intVal]{
		Lattice:  intLattice{},
		Transfer: func(b *Block, in *intVal) *intVal { return in },
		Edge: func(from, to *Block, out *intVal) *intVal {
			if from.Cond != nil && len(from.Succs) == 2 && from.Succs[0] == to {
				return &intVal{v: 1} // "condition known true" refinement
			}
			return out
		},
		Entry: &intVal{v: 0},
	}.Forward(g)
	then := res.In[2]
	if then == nil || then.top || then.v != 1 {
		t.Fatalf("true-edge state = %+v, want {1}", then)
	}
	// if.done joins the refined then-state {1} with the false-edge
	// entry state {0} → {1}.
	done := res.In[3]
	if done == nil || done.top || done.v != 1 {
		t.Fatalf("post-if state = %+v, want {1}", done)
	}
}
