// The svc fixture covers the lockorder analyzer's cases: a local
// two-mutex cycle, a sharded self-cycle, a cross-package cycle closed
// through dep's exported fact, near-misses that must stay silent, and
// the waiver marker.
package svc

import (
	"sync"

	"lockorder/dep"
)

type S struct {
	mu1 sync.Mutex
	mu2 sync.Mutex
	a   dep.A
	b   dep.B
}

// forward acquires mu1 then mu2 — one direction of the local cycle.
// The report lands here because this is the cycle's smallest-position
// edge.
func (s *S) forward() {
	s.mu1.Lock()
	defer s.mu1.Unlock()
	s.mu2.Lock() // want `lock order cycle`
	s.mu2.Unlock()
}

// backward closes the cycle: mu2 then mu1.
func (s *S) backward() {
	s.mu2.Lock()
	defer s.mu2.Unlock()
	s.mu1.Lock()
	s.mu1.Unlock()
}

type shard struct{ mu sync.Mutex }

type pool struct{ shards []shard }

// crossShard locks two instances of the same lock class in arbitrary
// index order — the classic sharded deadlock, a self-edge on
// (shard).mu.
func (p *pool) crossShard(i, j int) {
	p.shards[i].mu.Lock()
	defer p.shards[i].mu.Unlock()
	p.shards[j].mu.Lock() // want `lock order cycle`
	p.shards[j].mu.Unlock()
}

// inverted acquires dep's B then A; dep.TakeBoth's fact carries the
// A→B edge, so this closes a cross-package cycle.
func (s *S) inverted() {
	s.b.Mu.Lock()
	defer s.b.Mu.Unlock()
	s.a.Mu.Lock() // want `lock order cycle`
	s.a.Mu.Unlock()
}

type T struct {
	x sync.Mutex
	y sync.Mutex
}

// consistent always goes x before y — no cycle, must stay silent.
func (t *T) consistent() {
	t.x.Lock()
	defer t.x.Unlock()
	t.y.Lock()
	t.y.Unlock()
}

func (t *T) alsoConsistent() {
	t.x.Lock()
	t.y.Lock()
	t.y.Unlock()
	t.x.Unlock()
}

// callEdgeOnly holds its own lock across a dep call: produces call
// edges x→(A).Mu with no inverse anywhere, so no cycle.
func (t *T) callEdgeOnly(a *dep.A) {
	t.x.Lock()
	defer t.x.Unlock()
	dep.LockA(a)
}

type W struct {
	m sync.Mutex
	n sync.Mutex
}

// waived inverts the order but carries a reviewed waiver, so the edge
// is dropped and no cycle forms.
func (w *W) waivedForward() {
	w.m.Lock()
	defer w.m.Unlock()
	w.n.Lock() //aarc:lockorder n is only tried-locked here in production
	w.n.Unlock()
}

func (w *W) waivedBackward() {
	w.n.Lock()
	defer w.n.Unlock()
	w.m.Lock() //aarc:lockorder reviewed: disjoint instances by construction
	w.m.Unlock()
}

type E struct {
	p sync.Mutex
	q sync.Mutex
}

// emptyReason: a waiver without a justification is itself a finding
// (and still drops the edge, like lockscope).
func (e *E) emptyReason() {
	e.p.Lock()
	defer e.p.Unlock()
	//aarc:lockorder
	e.q.Lock() // want `needs a reason`
	e.q.Unlock()
}

func (e *E) emptyReasonBack() {
	e.q.Lock()
	defer e.q.Unlock()
	e.p.Lock() //aarc:lockorder reviewed: never concurrent with emptyReason
	e.p.Unlock()
}

// goDetached spawns a goroutine that takes locks in inverse order on
// its own stack — but since the spawner's held set does not cross the
// go boundary, only the goroutine's own ordering counts, and it is
// internally consistent.
func (t *T) goDetached() {
	t.x.Lock()
	defer t.x.Unlock()
	go func() {
		t.y.Lock()
		t.y.Unlock()
	}()
}

type C struct {
	u sync.Mutex
	v sync.Mutex
}

// condV takes v on the slow path only and keeps it past the join, so
// the u taken after the join may be taken under v: that v→u edge
// closes the cycle with uThenV's u→v.
func (c *C) condV(slow bool) {
	if slow {
		c.v.Lock()
		defer c.v.Unlock()
	}
	c.u.Lock() // want `lock order cycle`
	c.u.Unlock()
}

func (c *C) uThenV() {
	c.u.Lock()
	defer c.u.Unlock()
	c.v.Lock()
	c.v.Unlock()
}

type G struct {
	a sync.Mutex
	b sync.Mutex
}

func (g *G) lockB() {
	g.b.Lock()
	g.b.Unlock()
}

// spawnB takes b only on a goroutine it starts, never on its caller's
// stack.
func (g *G) spawnB() {
	go func() {
		g.lockB()
	}()
}

// holdAThenSpawn holds a across spawnB, which makes no a→b edge, so
// holdBThenA's b→a closes no cycle.
func (g *G) holdAThenSpawn() {
	g.a.Lock()
	defer g.a.Unlock()
	g.spawnB()
}

func (g *G) holdBThenA() {
	g.b.Lock()
	defer g.b.Unlock()
	g.a.Lock()
	g.a.Unlock()
}

// localPair takes two function-local mutexes in both orders: they have
// no declaration-site class, make no edges and form no cycle.
func localPair() {
	var p, q sync.Mutex
	p.Lock()
	q.Lock()
	q.Unlock()
	p.Unlock()
	q.Lock()
	p.Lock()
	p.Unlock()
	q.Unlock()
}
