// Fixture dependency for tierorder: a fake of the project's store
// package exposing the wrapper constructors the rank table names.
package store

// Store is the minimal wrapped surface.
type Store interface {
	Put(key string, body []byte) error
}

type mem struct{}

func (mem) Put(string, []byte) error { return nil }

// NewMemory is a base tier (rank 0).
func NewMemory() Store { return mem{} }

// OpenDisk is the other base tier (rank 0).
func OpenDisk(dir string) (Store, error) { return mem{}, nil }

// NewRetry wraps s with bounded retries (rank 1).
func NewRetry(s Store, attempts int) Store { return s }

// NewBreaker wraps s with a circuit breaker (rank 2).
func NewBreaker(s Store, threshold int) Store { return s }

// NewTiered composes a fast and a slow tier (rank 3).
func NewTiered(fast, slow Store) Store { return fast }

// NewFaulty is the transparent chaos layer: any position, inherits the
// rank of what it wraps.
func NewFaulty(s Store) Store { return s }
