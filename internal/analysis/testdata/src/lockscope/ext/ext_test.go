// Fixture for an external test package: lock hygiene covers it, while
// the leaf rule, a property of production code, skips it.
package ext_test

import "sync"

type engine struct{}

func (engine) Search(q string) string { return q }

type probe struct {
	mu  sync.Mutex
	eng engine
}

func (p *probe) searchUnderLock(q string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eng.Search(q) // want `a search while holding mutex p\.mu`
}

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

// ab and ba nest in both orders; no nesting is reported in a _test
// package.
func (p *pair) ab() {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func (p *pair) ba() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}
