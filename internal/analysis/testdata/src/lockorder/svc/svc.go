// The svc fixture covers the lockorder analyzer's leaf rule: a mutex
// acquired while another may be held is reported at the acquisition,
// or at the call to a same-package helper that acquires one, whatever
// order the rest of the package keeps. Near-misses that must stay
// silent and the waiver marker sit alongside.
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

// forward acquires mu1 then mu2, and backward the reverse: each
// nesting is reported where it happens.
func (s *S) forward() {
	s.mu1.Lock()
	defer s.mu1.Unlock()
	s.mu2.Lock() // want `acquiring mutex s\.mu2 while holding mutex s\.mu1`
	s.mu2.Unlock()
}

func (s *S) backward() {
	s.mu2.Lock()
	defer s.mu2.Unlock()
	s.mu1.Lock() // want `acquiring mutex s\.mu1 while holding mutex s\.mu2`
	s.mu1.Unlock()
}

type shard struct{ mu sync.Mutex }

type pool struct{ shards []shard }

// crossShard locks two instances of the same lock class in arbitrary
// index order — the classic sharded deadlock.
func (p *pool) crossShard(i, j int) {
	p.shards[i].mu.Lock()
	defer p.shards[i].mu.Unlock()
	p.shards[j].mu.Lock() // want `acquiring mutex p\.shards\[j\]\.mu while holding mutex p\.shards\[i\]\.mu`
	p.shards[j].mu.Unlock()
}

// inverted nests two mutexes declared in an imported package.
func (s *S) inverted() {
	s.b.Mu.Lock()
	defer s.b.Mu.Unlock()
	s.a.Mu.Lock() // want `acquiring mutex s\.a\.Mu while holding mutex s\.b\.Mu`
	s.a.Mu.Unlock()
}

type T struct {
	x sync.Mutex
	y sync.Mutex
}

// consistent always goes x before y. No reverse nesting exists, but a
// nesting is reported anyway: every mutex is a leaf lock.
func (t *T) consistent() {
	t.x.Lock()
	defer t.x.Unlock()
	t.y.Lock() // want `acquiring mutex t\.y while holding mutex t\.x`
	t.y.Unlock()
}

func (t *T) alsoConsistent() {
	t.x.Lock()
	t.y.Lock() // want `acquiring mutex t\.y while holding mutex t\.x`
	t.y.Unlock()
	t.x.Unlock()
}

// callEdgeOnly holds its own lock across a call into another package
// that locks one of that package's mutexes. Only same-package calls are
// followed, so this stays silent.
func (t *T) callEdgeOnly(a *dep.A) {
	t.x.Lock()
	defer t.x.Unlock()
	dep.LockA(a)
}

type W struct {
	m sync.Mutex
	n sync.Mutex
}

// waivedForward and waivedBackward nest in both orders, each nesting
// under a reviewed waiver.
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
// (and still waives the nesting, like lock hygiene's).
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

// goDetached spawns a goroutine that takes y on its own stack: the
// spawner's held set does not cross the go boundary, so nothing nests.
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
// the u taken after the join may be taken under v.
func (c *C) condV(slow bool) {
	if slow {
		c.v.Lock()
		defer c.v.Unlock()
	}
	c.u.Lock() // want `acquiring mutex c\.u while holding mutex c\.v`
	c.u.Unlock()
}

func (c *C) uThenV() {
	c.u.Lock()
	defer c.u.Unlock()
	c.v.Lock() // want `acquiring mutex c\.v while holding mutex c\.u`
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

// holdAThenSpawn holds a across spawnB, which acquires nothing on its
// caller's goroutine, so nothing nests.
func (g *G) holdAThenSpawn() {
	g.a.Lock()
	defer g.a.Unlock()
	g.spawnB()
}

func (g *G) holdBThenA() {
	g.b.Lock()
	defer g.b.Unlock()
	g.a.Lock() // want `acquiring mutex g\.a while holding mutex g\.b`
	g.a.Unlock()
}

// holdAThenLockB holds a across same-package calls that acquire b,
// directly and through another helper: each call is the nesting.
func (g *G) holdAThenLockB() {
	g.a.Lock()
	defer g.a.Unlock()
	g.lockB()      // want `acquiring mutex svc\.\(G\)\.b \(in svc\.\(G\)\.lockB\) while holding mutex g\.a`
	g.lockBAgain() // want `acquiring mutex svc\.\(G\)\.b \(in svc\.\(G\)\.lockBAgain\) while holding mutex g\.a`
}

func (g *G) lockBAgain() { g.lockB() }

// lockBAfterUnlock calls the same helper once a is released.
func (g *G) lockBAfterUnlock() {
	g.a.Lock()
	g.a.Unlock()
	g.lockB()
}

// localPair takes two function-local mutexes in both orders: they have
// no declaration-site class, so neither nesting is reported.
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
