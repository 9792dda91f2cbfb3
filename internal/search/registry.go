package search

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory constructs a fresh Searcher for one search run. The seed drives
// any stochastic component of the method (BO's initial design and candidate
// sampling, random search); deterministic methods ignore it.
type Factory func(seed uint64) Searcher

// registration is one registry row: the factory plus the method's
// implementation version.
type registration struct {
	version int
	factory Factory
}

var (
	registryMu sync.RWMutex
	registry   = map[string]registration{}
)

// Register adds a searcher factory under a case-insensitive name with an
// implementation version. The version is part of a method's public
// identity: the serving layer folds it into recommendation fingerprints,
// so bumping it when a method's behavior changes makes every previously
// cached (possibly persisted) recommendation self-invalidate — old
// entries simply stop being addressed. version.lock, next to this file,
// pins each built-in method's version with a digest of the bodies the
// service stores for a fixed corpus; TestMethodPins in internal/core
// fails when a digest moves at an unchanged version. Method packages
// self-register from init, so importing a package (directly or blank) is
// what makes its methods resolvable. Register panics on a duplicate or
// empty name or a non-positive version: all are programmer errors.
func Register(name string, version int, f Factory) {
	key := strings.ToLower(strings.TrimSpace(name))
	if key == "" {
		panic("search: Register with empty method name")
	}
	if version < 1 {
		panic(fmt.Sprintf("search: Register(%q) with non-positive version %d", name, version))
	}
	if f == nil {
		panic(fmt.Sprintf("search: Register(%q) with nil factory", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("search: Register called twice for method %q", key))
	}
	registry[key] = registration{version: version, factory: f}
}

// New resolves a registered method by name (case-insensitive) and builds a
// searcher with the given seed. The error lists the registered methods, so
// CLIs can surface it verbatim.
func New(name string, seed uint64) (Searcher, error) {
	registryMu.RLock()
	reg, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("search: unknown method %q (registered: %s)",
			name, strings.Join(Methods(), ", "))
	}
	return reg.factory(seed), nil
}

// Version returns a registered method's implementation version. Callers
// that cache search results by identity (the serving layer) include it
// in their keys so a version bump orphans stale entries.
func Version(name string) (int, error) {
	registryMu.RLock()
	reg, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	registryMu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("search: unknown method %q (registered: %s)",
			name, strings.Join(Methods(), ", "))
	}
	return reg.version, nil
}

// Methods returns the registered method names, sorted.
func Methods() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
