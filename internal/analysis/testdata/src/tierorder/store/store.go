// Fixture dependency for tierorder: a fake of the project's store
// package, down to the one method the analyzer looks for.
package store

// Store is the minimal store surface.
type Store interface {
	Put(key string, body []byte) error
}
