package svc

// invertedInTest takes T's locks y then x, against consistent's x then
// y. Lock order is built from non-test code only, so no cycle forms.
func (t *T) invertedInTest() {
	t.y.Lock()
	defer t.y.Unlock()
	t.x.Lock()
	t.x.Unlock()
}
