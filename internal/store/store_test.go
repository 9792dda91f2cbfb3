package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"aarc/internal/store"
)

// The conformance suite: every Store implementation must pass every
// subtest. New implementations plug in here.
func implementations(t *testing.T) map[string]func(t *testing.T) store.Store {
	return map[string]func(t *testing.T) store.Store{
		"memory": func(t *testing.T) store.Store { return store.NewMemory(1024) },
		"disk": func(t *testing.T) store.Store {
			d, err := store.OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"tiered": func(t *testing.T) store.Store {
			d, err := store.OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return store.NewTiered(store.NewMemory(1024), d)
		},
		// The resilience wrappers: a quiescent fault injector must be a
		// transparent pass-through, and the full production stack —
		// breaker over retry over a deterministically faulting store —
		// must behave exactly like a healthy one (each key's first
		// Get/Put fails, every retry recovers it, the breaker never sees
		// a failure).
		"faulty-quiescent": func(t *testing.T) store.Store {
			return store.NewFaulty(store.NewMemory(1024), store.FaultConfig{})
		},
		"retry-over-faults": func(t *testing.T) store.Store {
			faulty := store.NewFaulty(store.NewMemory(1024), store.FaultConfig{FailFirstPerKey: true})
			return store.NewRetry(faulty, store.RetryConfig{})
		},
		"breaker-retry-faulty": func(t *testing.T) store.Store {
			faulty := store.NewFaulty(store.NewMemory(1024), store.FaultConfig{FailFirstPerKey: true})
			return store.NewBreaker(store.NewRetry(faulty, store.RetryConfig{}), store.BreakerConfig{})
		},
	}
}

func entry(i int) store.Entry {
	return store.Entry{
		Body: []byte(fmt.Sprintf(`{"fingerprint":"fp-%d","value":%d}`, i, i)),
		Meta: []byte(fmt.Sprintf(`{"meta":%d}`, i)),
	}
}

func key(i int) string { return fmt.Sprintf("sha256:%064d", i) }

func TestConformance(t *testing.T) {
	for name, open := range implementations(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("RoundTrip", func(t *testing.T) {
				st := open(t)
				defer st.Close()
				if _, ok, err := st.Get(key(1)); ok || err != nil {
					t.Fatalf("empty store Get = ok=%v err=%v", ok, err)
				}
				want := entry(1)
				if err := st.Put(key(1), want); err != nil {
					t.Fatal(err)
				}
				got, ok, err := st.Get(key(1))
				if err != nil || !ok {
					t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
				}
				if !bytes.Equal(got.Body, want.Body) || !bytes.Equal(got.Meta, want.Meta) {
					t.Errorf("round trip mutated entry:\n got %q %q\nwant %q %q", got.Body, got.Meta, want.Body, want.Meta)
				}
			})
			t.Run("Overwrite", func(t *testing.T) {
				st := open(t)
				defer st.Close()
				for i := 0; i < 2; i++ {
					if err := st.Put(key(1), entry(i)); err != nil {
						t.Fatal(err)
					}
				}
				got, ok, err := st.Get(key(1))
				if err != nil || !ok {
					t.Fatalf("Get: ok=%v err=%v", ok, err)
				}
				if !bytes.Equal(got.Body, entry(1).Body) {
					t.Errorf("overwrite kept stale body %q", got.Body)
				}
				if st.Len() != 1 {
					t.Errorf("Len after overwrite = %d, want 1", st.Len())
				}
			})
			t.Run("Delete", func(t *testing.T) {
				st := open(t)
				defer st.Close()
				if err := st.Put(key(1), entry(1)); err != nil {
					t.Fatal(err)
				}
				if err := st.Delete(key(1)); err != nil {
					t.Fatal(err)
				}
				if _, ok, _ := st.Get(key(1)); ok {
					t.Error("deleted key still present")
				}
				// Idempotent: deleting an absent key is not an error.
				if err := st.Delete(key(1)); err != nil {
					t.Errorf("second delete errored: %v", err)
				}
				if st.Len() != 0 {
					t.Errorf("Len after delete = %d, want 0", st.Len())
				}
			})
			t.Run("KeysAndLen", func(t *testing.T) {
				st := open(t)
				defer st.Close()
				const n = 7
				for i := 0; i < n; i++ {
					if err := st.Put(key(i), entry(i)); err != nil {
						t.Fatal(err)
					}
				}
				if st.Len() != n {
					t.Errorf("Len = %d, want %d", st.Len(), n)
				}
				seen := make(map[string]bool)
				for _, k := range st.Keys() {
					seen[k] = true
				}
				for i := 0; i < n; i++ {
					if !seen[key(i)] {
						t.Errorf("Keys missing %s", key(i))
					}
				}
				if len(seen) != n {
					t.Errorf("Keys has %d distinct entries, want %d", len(seen), n)
				}
			})
			t.Run("Closed", func(t *testing.T) {
				st := open(t)
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if err := st.Put(key(1), entry(1)); err == nil {
					t.Error("Put on closed store did not error")
				}
				if _, _, err := st.Get(key(1)); err == nil {
					t.Error("Get on closed store did not error")
				}
			})
			// Concurrent mixed traffic, meaningful under -race: correctness
			// here is "no race, no error, and present keys read back intact".
			t.Run("Concurrent", func(t *testing.T) {
				st := open(t)
				defer st.Close()
				const goroutines = 8
				const perG = 50
				var wg sync.WaitGroup
				errs := make([]error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; i < perG; i++ {
							k := key(i % 10)
							switch i % 3 {
							case 0:
								if err := st.Put(k, entry(i)); err != nil {
									errs[g] = err
									return
								}
							case 1:
								if _, _, err := st.Get(k); err != nil {
									errs[g] = err
									return
								}
							default:
								if err := st.Delete(k); err != nil {
									errs[g] = err
									return
								}
							}
						}
					}(g)
				}
				wg.Wait()
				for g, err := range errs {
					if err != nil {
						t.Fatalf("goroutine %d: %v", g, err)
					}
				}
			})
		})
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	const capacity = 4
	m := store.NewMemory(capacity)
	const n = 10
	for i := 0; i < n; i++ {
		if err := m.Put(key(i), entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != capacity {
		t.Errorf("Len = %d, want bound %d", m.Len(), capacity)
	}
	st := m.Stats()
	if st.Kind != "memory" || st.Evictions != n-capacity {
		t.Errorf("stats = %+v, want kind=memory evictions=%d", st, n-capacity)
	}
	// Oldest evicted, newest retained.
	if _, ok, _ := m.Get(key(0)); ok {
		t.Error("oldest entry survived past capacity")
	}
	if _, ok, _ := m.Get(key(n - 1)); !ok {
		t.Error("newest entry missing")
	}
	// Get refreshes recency: touching the oldest survivor keeps it alive
	// through the next insert.
	oldest := key(n - capacity)
	if _, ok, _ := m.Get(oldest); !ok {
		t.Fatalf("%s should still be cached", oldest)
	}
	if err := m.Put(key(n), entry(n)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := m.Get(oldest); !ok {
		t.Error("recently-touched entry was evicted before a staler one")
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := d1.Put(key(i), entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.Delete(key(0)); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != n-1 {
		t.Errorf("reopened store has %d entries, want %d", d2.Len(), n-1)
	}
	for i := 1; i < n; i++ {
		got, ok, err := d2.Get(key(i))
		if err != nil || !ok {
			t.Fatalf("reopened Get(%s): ok=%v err=%v", key(i), ok, err)
		}
		if !bytes.Equal(got.Body, entry(i).Body) || !bytes.Equal(got.Meta, entry(i).Meta) {
			t.Errorf("entry %d corrupted across reopen", i)
		}
	}
	if _, ok, _ := d2.Get(key(0)); ok {
		t.Error("deleted entry resurrected by reopen")
	}
}

// dataFiles lists the store's committed entry files (not temp files).
func dataFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// fileFormat writes key(1)'s entry file in one of the disk formats and
// says where a body byte and a meta byte of it lie.
type fileFormat struct {
	suffix         string // of the format's subtest names
	prefix         string // how every file of the format begins
	write          func(d *store.Disk) error
	bodyAt, metaAt func(b []byte) int
}

var fileFormats = []fileFormat{
	// What Put writes: the raw body and meta follow the header line.
	{
		prefix: `{"format":2,`,
		write:  func(d *store.Disk) error { return d.Put(key(1), entry(1)) },
		bodyAt: func(b []byte) int { return bytes.IndexByte(b, '\n') + 1 + len(entry(1).Body)/2 },
		metaAt: func(b []byte) int { return len(b) - len(entry(1).Meta)/2 },
	},
	// What earlier versions' Put wrote, and the store still reads: Put
	// indexes the key, and the format-1 file then replaces Put's under
	// the same name. Body and meta are base64 strings.
	{
		suffix: "-format1",
		prefix: `{"format":1,`,
		write: func(d *store.Disk) error {
			if err := d.Put(key(1), entry(1)); err != nil {
				return err
			}
			return store.WriteFormat1(d.Dir(), key(1), entry(1))
		},
		bodyAt: after(`"body":"`),
		metaAt: after(`"meta":"`),
	},
}

// after returns where the byte after the first s in b lies.
func after(s string) func(b []byte) int {
	return func(b []byte) int { return bytes.Index(b, []byte(s)) + len(s) }
}

// TestDiskCorruptionReadsAsMiss: an entry file of either format that is
// truncated, garbage, changed in one body or meta byte, or holds another
// key reads as a miss without an error, in process and after a restart,
// and the restart's open removes it.
func TestDiskCorruptionReadsAsMiss(t *testing.T) {
	corruptions := map[string]func(path string, f fileFormat) error{
		"truncated": func(path string, _ fileFormat) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)/2], 0o644)
		},
		"garbage": func(path string, _ fileFormat) error {
			return os.WriteFile(path, []byte("\x00\xffnot json at all"), 0o644)
		},
		// A changed body or meta byte keeps the layout, and format 1's
		// base64, valid: only the checksum can catch it. Metadata
		// corruption is as fatal as body corruption (the serving layer
		// rebuilds runner pools from it), so the checksum covers both.
		"bitflip": func(path string, f fileFormat) error {
			return changeByte(path, f.bodyAt)
		},
		"meta-bitflip": func(path string, f fileFormat) error {
			return changeByte(path, f.metaAt)
		},
		"wrong-key": func(path string, _ fileFormat) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, bytes.Replace(b, []byte(key(1)), []byte(key(2)), 1), 0o644)
		},
	}
	for _, f := range fileFormats {
		for name, corrupt := range corruptions {
			t.Run(name+f.suffix, func(t *testing.T) {
				dir := t.TempDir()
				d, err := store.OpenDisk(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				// writeCorrupt writes key(1)'s file in the format and
				// corrupts it.
				writeCorrupt := func() {
					t.Helper()
					if err := f.write(d); err != nil {
						t.Fatal(err)
					}
					files := dataFiles(t, dir)
					if len(files) != 1 {
						t.Fatalf("expected 1 data file, found %v", files)
					}
					path := filepath.Join(dir, files[0])
					b, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.HasPrefix(b, []byte(f.prefix)) {
						t.Fatalf("wrote %.40q, want a file beginning %s", b, f.prefix)
					}
					if err := corrupt(path, f); err != nil {
						t.Fatal(err)
					}
				}

				// In-process: the corrupt entry degrades to a miss, never an error.
				writeCorrupt()
				if _, ok, err := d.Get(key(1)); ok || err != nil {
					t.Errorf("corrupt Get = ok=%v err=%v, want miss without error", ok, err)
				}
				if d.Len() != 0 {
					t.Errorf("corrupt entry still indexed (len=%d)", d.Len())
				}
				// A fresh Put repairs the slot.
				if err := d.Put(key(1), entry(1)); err != nil {
					t.Fatal(err)
				}
				if _, ok, err := d.Get(key(1)); !ok || err != nil {
					t.Errorf("repaired Get = ok=%v err=%v", ok, err)
				}

				// Across restart: corruption present at open is skipped
				// and removed, not fatal.
				writeCorrupt()
				d2, err := store.OpenDisk(dir)
				if err != nil {
					t.Fatalf("OpenDisk over corrupt dir: %v", err)
				}
				defer d2.Close()
				if files := dataFiles(t, dir); len(files) != 0 || d2.Len() != 0 {
					t.Errorf("after the open: %d indexed, files %v; want the corrupt file removed", d2.Len(), files)
				}
				if _, ok, err := d2.Get(key(1)); ok || err != nil {
					t.Errorf("reopened corrupt Get = ok=%v err=%v, want miss without error", ok, err)
				}
			})
		}
	}
}

// changeByte rewrites the file at path with its at(b)th byte changed to
// another base64 letter.
func changeByte(path string, at func(b []byte) int) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	i := at(b)
	if b[i] == 'A' {
		b[i] = 'B'
	} else {
		b[i] = 'A'
	}
	return os.WriteFile(path, b, 0o644)
}

func TestDiskCleansTempFilesOnOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ".tmp-12345"), []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, name := range dataFiles(t, dir) {
		if strings.HasPrefix(name, ".tmp-") {
			t.Errorf("leftover temp file %s survived open", name)
		}
	}
}

func TestTieredWriteThroughAndPromote(t *testing.T) {
	mem := store.NewMemory(2)
	disk, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := store.NewTiered(mem, disk)
	defer tiered.Close()

	// Write-through: a Put lands in both tiers.
	if err := tiered.Put(key(1), entry(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := mem.Get(key(1)); !ok {
		t.Error("put did not reach the memory tier")
	}
	if _, ok, _ := disk.Get(key(1)); !ok {
		t.Error("put did not reach the disk tier")
	}

	// Overflow the memory tier: evicted entries stay durable on disk.
	for i := 2; i <= 4; i++ {
		if err := tiered.Put(key(i), entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, _ := mem.Get(key(1)); ok {
		t.Fatal("memory tier kept an entry past its bound")
	}
	got, ok, err := tiered.Get(key(1))
	if err != nil || !ok {
		t.Fatalf("tiered Get after memory eviction: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got.Body, entry(1).Body) {
		t.Errorf("disk tier returned wrong body %q", got.Body)
	}
	// Promote-on-hit: the disk hit is now back in memory.
	if _, ok, _ := mem.Get(key(1)); !ok {
		t.Error("disk hit was not promoted into the memory tier")
	}

	// Len/Keys count distinct keys across tiers, not the sum.
	if tiered.Len() != 4 {
		t.Errorf("tiered Len = %d, want 4", tiered.Len())
	}

	// Delete clears every tier.
	if err := tiered.Delete(key(1)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := mem.Get(key(1)); ok {
		t.Error("delete left the memory tier populated")
	}
	if _, ok, _ := disk.Get(key(1)); ok {
		t.Error("delete left the disk tier populated")
	}

	st := tiered.Stats()
	if st.Kind != "tiered" || st.Tiers["disk"] != 3 {
		t.Errorf("stats = %+v, want kind=tiered disk=3", st)
	}
}

func TestTieredWarm(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := disk.Put(key(i), entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	disk.Close()

	// A new process: reopen the dir under a cold memory tier and warm it.
	disk2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem := store.NewMemory(16)
	tiered := store.NewTiered(mem, disk2)
	defer tiered.Close()
	if warmed := tiered.Warm(4); warmed != 4 {
		t.Errorf("Warm(4) = %d, want 4", warmed)
	}
	if mem.Len() != 4 {
		t.Errorf("memory tier holds %d after warm, want 4", mem.Len())
	}
	if warmed := tiered.Warm(0); warmed != 6 {
		t.Errorf("Warm(0) = %d, want all 6", warmed)
	}
}

func TestStatsOfCustomStore(t *testing.T) {
	st := store.StatsOf(nopStore{})
	if st.Kind != "custom" || st.Tiers["custom"] != 3 {
		t.Errorf("StatsOf(custom) = %+v", st)
	}
}

// nopStore implements Store but not StatsReporter.
type nopStore struct{}

func (nopStore) Get(string) (store.Entry, bool, error) { return store.Entry{}, false, nil }
func (nopStore) Put(string, store.Entry) error         { return nil }
func (nopStore) Delete(string) error                   { return nil }
func (nopStore) Keys() []string                        { return nil }
func (nopStore) Len() int                              { return 3 }
func (nopStore) Close() error                          { return nil }
