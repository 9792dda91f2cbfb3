package flow

// The worklist engine. Analyzers describe a join semilattice and a
// per-block transfer function; the engine iterates to a fixpoint over
// the CFG. Determinism matters as much as correctness here — aarcvet
// diffs its own output in CI — so the worklist is FIFO over block
// indexes and Join arguments always arrive in predecessor-index order.

// A Lattice describes the abstract-state domain of one analysis: a
// join semilattice with a bottom element. Join must be commutative,
// associative and idempotent; Equal must be a congruence for Join.
type Lattice[T any] interface {
	// Bottom is the "no information yet" element, the initial in-state
	// of every block except entry.
	Bottom() T
	// Join combines the states flowing in from two predecessors.
	Join(a, b T) T
	// Equal reports whether two states carry the same information;
	// the fixpoint loop stops re-queuing a block when its out-state
	// stops changing under Equal.
	Equal(a, b T) bool
}

// An Analysis is one forward dataflow problem over a Graph.
type Analysis[T any] struct {
	Lattice Lattice[T]

	// Transfer produces the block's out-state from its in-state. It
	// must be monotone in the in-state or the fixpoint may not exist;
	// MaxIter is the safety net when it is not, or when the lattice
	// has infinite ascending chains.
	Transfer func(b *Block, in T) T

	// Edge, when non-nil, refines the state flowing along one edge —
	// the hook branch-condition analyses (nilness) use: on the true
	// edge of `x == nil` the state can assert x is nil even though the
	// block's out-state cannot.
	Edge func(from, to *Block, out T) T

	// Entry is the in-state of the entry block (parameter facts,
	// typically). The zero T is used when the lattice's Bottom is the
	// right entry state.
	Entry T

	// MaxIter bounds the number of block visits; 0 means the default
	// (32 × blocks), generous for any monotone analysis over these
	// CFGs. On overrun the engine stops and returns the current
	// (sound-if-monotone, possibly unrefined) states rather than
	// spinning.
	MaxIter int
}

// Result holds the fixpoint: In[i] and Out[i] are the states at entry
// and exit of Blocks[i].
type Result[T any] struct {
	In, Out []T
	// Converged is false when MaxIter stopped the iteration before a
	// fixpoint; states are then whatever the last visit produced.
	Converged bool
	// Iterations is the number of block visits performed.
	Iterations int
}

// Forward runs the analysis over g to fixpoint and returns the
// per-block states.
func (a Analysis[T]) Forward(g *Graph) Result[T] {
	n := len(g.Blocks)
	res := Result[T]{In: make([]T, n), Out: make([]T, n), Converged: true}
	for i := range res.In {
		res.In[i] = a.Lattice.Bottom()
		res.Out[i] = a.Lattice.Bottom()
	}
	res.In[0] = a.Entry

	preds := g.Preds()
	maxIter := a.MaxIter
	if maxIter == 0 {
		maxIter = 32 * n
	}

	// FIFO worklist over block indexes, seeded in index order; inQueue
	// dedupes so a block is pending at most once.
	queue := make([]int, 0, n)
	inQueue := make([]bool, n)
	push := func(i int) {
		if !inQueue[i] {
			inQueue[i] = true
			queue = append(queue, i)
		}
	}
	for i := 0; i < n; i++ {
		push(i)
	}

	for len(queue) > 0 {
		if res.Iterations >= maxIter {
			res.Converged = false
			break
		}
		res.Iterations++
		i := queue[0]
		queue = queue[1:]
		inQueue[i] = false
		b := g.Blocks[i]

		in := res.In[i]
		if i != 0 {
			in = a.Lattice.Bottom()
			for _, p := range preds[i] {
				out := res.Out[p.Index]
				if a.Edge != nil {
					out = a.Edge(p, b, out)
				}
				in = a.Lattice.Join(in, out)
			}
		}
		res.In[i] = in

		out := a.Transfer(b, in)
		if a.Lattice.Equal(out, res.Out[i]) {
			continue
		}
		res.Out[i] = out
		for _, s := range b.Succs {
			push(s.Index)
		}
	}
	return res
}
