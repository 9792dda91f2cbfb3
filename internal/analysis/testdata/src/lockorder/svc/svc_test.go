package svc

// invertedInTest nests T's locks y then x. The leaf rule covers
// non-test code only, so a test may nest locks.
func (t *T) invertedInTest() {
	t.y.Lock()
	defer t.y.Unlock()
	t.x.Lock()
	t.x.Unlock()
}
