// Fixture dependency for lockscope: a fake of the project's store
// package. Lock hygiene matches store I/O by method or function name
// and package *name*, so only the package clause matters.
package store

// Store mirrors the real Store surface lockscope targets.
type Store interface {
	Get(key string) ([]byte, bool)
	Put(key string, body []byte) error
	Delete(key string) error
	Keys() []string
}

// Peek reads key without reordering the store, as the real one does.
func Peek(s Store, key string) ([]byte, bool) { return s.Get(key) }

// Contains reports whether s holds key.
func Contains(s Store, key string) bool {
	_, ok := s.Get(key)
	return ok
}
