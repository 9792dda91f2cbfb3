package svc

// Lock hygiene covers _test.go files: a test helper that searches
// under the lock deadlocks the same way.
func (s *S) searchUnderLockInTest(q string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Search(q) // want `a search while holding mutex s\.mu`
}
