package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Disk is a durable store: one file per fingerprint under a directory,
// written via an atomic temp-file-and-rename so a crash mid-write can
// never leave a half-visible entry, and followed by an fsync of the
// directory so an acknowledged Put or Delete survives a power loss.
// Opening the store reads and verifies every file on GOMAXPROCS workers
// and rebuilds the index, so a restarted process serves every entry its
// predecessor stored. The reader accepts exactly the bytes Put writes:
// anything else — truncated, garbage, tampered, in another layout, or
// belonging to a different key — is corrupt, and reads as a miss (and
// is removed), never as an error. Safe for concurrent use.
type Disk struct {
	dir string

	// mu guards the index and the closed flag, and the rename or unlink
	// that commits a change to them. The rest of the file I/O — the
	// expensive part: a Put's write+fsync is ~0.5 ms, and the directory
	// fsync after a rename or unlink — happens outside it, so
	// concurrent Gets are not serialized behind a search completing its
	// Put. Renames are atomic and file names are a pure function of the
	// key, so a read racing a rewrite sees either the old or the new
	// complete envelope, never a torn one.
	mu     sync.RWMutex
	index  map[string]string // key -> file name within dir
	closed bool
}

// diskEnvelope is the on-disk file format, written by json.Marshal. Body
// and Meta are base64 in JSON ([]byte marshaling); Sum is a hex SHA-256
// over both (see envelopeSum) so in-place corruption of either — body or
// metadata — that still parses is caught and degraded to a miss. The
// reader (readEnvelope) does not decode it with encoding/json: it
// matches the exact bytes json.Marshal writes for this struct, so that
// layout is part of the format.
type diskEnvelope struct {
	Format int    `json:"format"`
	Key    string `json:"key"`
	Sum    string `json:"sum"`
	Body   []byte `json:"body"`
	Meta   []byte `json:"meta,omitempty"`
}

// envelopeSum is the integrity checksum over an entry's content. The
// body's length prefixes the concatenation so (body, meta) splits can
// never alias; metadata is covered because a corrupt meta is as fatal
// to consumers (runner-pool rebuilds) as a corrupt body.
func envelopeSum(body, meta []byte) [sha256.Size]byte {
	h := sha256.New()
	var prefix [24]byte
	h.Write(append(strconv.AppendInt(prefix[:0], int64(len(body)), 10), '\n'))
	h.Write(body)
	h.Write(meta)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// diskFormat versions the envelope; readers skip files from formats
// they do not understand (a miss, like any other unreadable file).
const diskFormat = 1

const (
	diskSuffix = ".rec.json"
	tmpPrefix  = ".tmp-"
)

// OpenDisk opens (creating if needed) a disk store rooted at dir and
// rebuilds its index from the files present. Leftover temp files from
// interrupted writes are removed first. Every entry file is then read
// and verified — envelope layout, key, checksum, and a file name equal
// to fileName(key) — on min(GOMAXPROCS, files) workers, all of which
// have returned before OpenDisk does. A file passes only in the exact
// layout Put writes; any other file is corrupt, and is skipped and
// removed, so a previous crash cannot wedge the store. Because Put and
// Delete fsync the directory, a reopen after a power loss finds every
// entry a Put acknowledged and none that a Delete removed.
func OpenDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening disk store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	var names []string
	for _, de := range entries {
		name := de.Name()
		switch {
		case de.IsDir():
		case strings.HasPrefix(name, tmpPrefix):
			// An interrupted write never renamed into place: discard.
			_ = os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, diskSuffix):
			names = append(names, name)
		}
	}
	keys := verifyFiles(dir, names)
	d := &Disk{dir: dir, index: make(map[string]string, len(names))}
	for i, name := range names {
		if keys[i] == "" {
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		d.index[keys[i]] = name
	}
	return d, nil
}

// verifyFiles returns, for each of the named files in dir, the key it
// stores, or "" when it is corrupt or not filed under fileName(key). The
// files are read on min(GOMAXPROCS, len(names)) workers, each writing
// only its own indices' slots, and all are joined before it returns.
func verifyFiles(dir string, names []string) []string {
	keys := make([]string, len(names))
	next := make(chan int, len(names)) // sized to the number of sends
	for i := range names {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(names)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Body and meta are only hashed here, never kept, so each
			// worker decodes every file into one reused buffer.
			var buf []byte
			for i := range next {
				keys[i], buf = verifyFile(dir, names[i], buf)
			}
		}()
	}
	wg.Wait()
	return keys
}

// verifyFile returns the key stored in dir/name when the file is an
// intact envelope filed under fileName(key), or "". Body and meta are
// decoded into buf, which it returns (grown, if it had to be) for the
// next file.
func verifyFile(dir, name string, buf []byte) (string, []byte) {
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return "", buf
	}
	env, ok := readEnvelope(b)
	if !ok || fileName(env.key) != name {
		return "", buf
	}
	e, buf, ok := env.decode(buf)
	if !ok || !env.intact(e) {
		return "", buf
	}
	return env.key, buf
}

// Dir returns the directory backing the store.
func (d *Disk) Dir() string { return d.dir }

// fileName derives a filesystem-safe, collision-free name for a key.
// Keys are hashed rather than escaped so any fingerprint string — or
// any key at all — maps to a fixed-length portable name.
func fileName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + diskSuffix
}

// rawEnvelope is one stored file as readEnvelope matched it: the decoded
// key, and the sum, body and meta as they appear in the file — hex,
// base64 and base64, aliasing the file's bytes. body is nil for a null
// body and meta is nil when the file has none.
type rawEnvelope struct {
	key             string
	sum, body, meta []byte
}

// readEnvelope matches b against the exact layout json.Marshal gives a
// diskEnvelope of the current format:
//
//	{"format":1,"key":<JSON string>,"sum":"<hex>","body":<base64 string or null>}
//
// with ,"meta":"<base64>" before the closing brace when meta is not
// empty. The key is the one token decoded by encoding/json, for its
// escape handling; the sum and the base64 strings are taken verbatim and
// must need no unquoting (Put's never do). Any other layout — reordered,
// respaced, escaped, or truncated — is reported as ok=false, like a file
// that is not JSON at all. Decoding the base64 and checking the sum are
// left to decode and intact.
func readEnvelope(b []byte) (env rawEnvelope, ok bool) {
	rest, ok := bytes.CutPrefix(b, []byte(`{"format":1,"key":`))
	if !ok {
		return env, false
	}
	n := stringToken(rest)
	if n < 0 || json.Unmarshal(rest[:n], &env.key) != nil || env.key == "" {
		return env, false
	}
	if env.sum, rest, ok = field(rest[n:], `,"sum":`); !ok {
		return env, false
	}
	if after, isNull := bytes.CutPrefix(rest, []byte(`,"body":null`)); isNull {
		rest = after
	} else if env.body, rest, ok = field(rest, `,"body":`); !ok {
		return env, false
	}
	if meta, after, hasMeta := field(rest, `,"meta":`); hasMeta {
		if len(meta) == 0 {
			return env, false
		}
		env.meta, rest = meta, after
	}
	return env, string(rest) == "}"
}

// stringToken returns the length of the JSON string token that b starts
// with, quotes included, or -1. It only finds where the token ends —
// skipping the byte after each backslash — and leaves validating it to
// json.Unmarshal.
func stringToken(b []byte) int {
	if len(b) == 0 || b[0] != '"' {
		return -1
	}
	for i := 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// field cuts name and then a JSON string off the front of b, returning
// the string's contents verbatim and the bytes after its closing quote.
// Contents with a backslash are not verbatim; callers reject them by
// what they accept (hex, base64).
func field(b []byte, name string) (s, rest []byte, ok bool) {
	b, ok = bytes.CutPrefix(b, []byte(name))
	if !ok || len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	end := bytes.IndexByte(b[1:], '"')
	if end < 0 {
		return nil, nil, false
	}
	return b[1 : 1+end], b[2+end:], true
}

// decode decodes env's body and meta into buf, reallocated when it is
// too small. The entry aliases the returned buffer; a Get passes nil so
// that every entry it returns owns fresh memory.
func (env rawEnvelope) decode(buf []byte) (Entry, []byte, bool) {
	n := base64.StdEncoding.DecodedLen(len(env.body)) + base64.StdEncoding.DecodedLen(len(env.meta))
	if buf == nil || cap(buf) < n {
		buf = make([]byte, n)
	}
	var e Entry
	if env.body != nil {
		nb, ok := decode64(buf[:cap(buf)], env.body)
		if !ok {
			return Entry{}, buf, false
		}
		e.Body = buf[:nb:nb]
	}
	if env.meta != nil {
		off := len(e.Body)
		nm, ok := decode64(buf[off:cap(buf)], env.meta)
		if !ok {
			return Entry{}, buf, false
		}
		e.Meta = buf[off : off+nm : off+nm]
	}
	return e, buf, true
}

// intact reports whether e, env's decoded content, matches env's sum.
func (env rawEnvelope) intact(e Entry) bool {
	var want [2 * sha256.Size]byte
	sum := envelopeSum(e.Body, e.Meta)
	hex.Encode(want[:], sum[:])
	return bytes.Equal(env.sum, want[:])
}

// decode64 decodes base64 src into dst. The decoder skips CR and LF,
// which a JSON string cannot hold raw, so a src with either is rejected
// first; any other byte outside the alphabet, a backslash included,
// fails the decode itself.
func decode64(dst, src []byte) (int, bool) {
	if bytes.IndexByte(src, '\n') >= 0 || bytes.IndexByte(src, '\r') >= 0 {
		return 0, false
	}
	n, err := base64.StdEncoding.Decode(dst, src)
	return n, err == nil
}

// readEntry returns the entry in the file at path when the file is an
// intact envelope stored under key.
func readEntry(path, key string) (Entry, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, false
	}
	env, ok := readEnvelope(b)
	if !ok || env.key != key {
		return Entry{}, false
	}
	e, _, ok := env.decode(nil)
	return e, ok && env.intact(e)
}

// Get implements Store. A present-but-corrupt file is a miss: the entry
// is dropped from the index and the file removed, so the serving layer
// simply re-searches. The file is read after the read lock is released,
// so concurrent Gets proceed in parallel.
func (d *Disk) Get(key string) (Entry, bool, error) {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return Entry{}, false, ErrClosed
	}
	name, ok := d.index[key]
	d.mu.RUnlock()
	if !ok {
		return Entry{}, false, nil
	}
	path := filepath.Join(d.dir, name)
	if e, ok := readEntry(path, key); ok {
		return e, true, nil
	}
	// Corrupt (or deleted underfoot): drop it — unless a concurrent Put
	// re-committed the slot while this read was in flight, in which case
	// the fresh entry stays and this call is just a miss.
	d.mu.Lock()
	if n, still := d.index[key]; still && n == name {
		if _, ok := readEntry(path, key); !ok {
			delete(d.index, key)
			_ = os.Remove(path)
		}
	}
	d.mu.Unlock()
	return Entry{}, false, nil
}

// encodeEnvelope returns the file Put writes for key and e.
func encodeEnvelope(key string, e Entry) ([]byte, error) {
	sum := envelopeSum(e.Body, e.Meta)
	return json.Marshal(diskEnvelope{
		Format: diskFormat,
		Key:    key,
		Sum:    hex.EncodeToString(sum[:]),
		Body:   e.Body,
		Meta:   e.Meta,
	})
}

// Put implements Store: marshal the envelope, write it to a temp file
// in the same directory, fsync, atomically rename it into place, then
// fsync the directory so the rename itself is durable.
func (d *Disk) Put(key string, e Entry) error {
	if key == "" {
		return errors.New("store: Put with empty key")
	}
	b, err := encodeEnvelope(key, e)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", key, err)
	}

	// The expensive part — temp write + fsync — runs outside the lock;
	// only the commit (atomic rename + index update) is serialized.
	d.mu.RLock()
	closed := d.closed
	d.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	f, err := os.CreateTemp(d.dir, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	tmp := f.Name()
	if _, err = f.Write(b); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	if err := d.commit(key, tmp); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := syncDir(d.dir); err != nil {
		return fmt.Errorf("store: committing %s: %w", key, err)
	}
	return nil
}

// commit renames the written temp file tmp into key's slot and indexes
// it, under the write lock.
func (d *Disk) commit(key, tmp string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	name := fileName(key)
	if err := os.Rename(tmp, filepath.Join(d.dir, name)); err != nil {
		return fmt.Errorf("store: committing %s: %w", key, err)
	}
	d.index[key] = name
	return nil
}

// Delete implements Store. Removing an indexed key fsyncs the directory
// after the unlink, so an invalidated entry stays gone across a power
// loss.
func (d *Disk) Delete(key string) error {
	removed, err := d.unlink(key)
	if err != nil || !removed {
		return err
	}
	if err := syncDir(d.dir); err != nil {
		return fmt.Errorf("store: deleting %s: %w", key, err)
	}
	return nil
}

// unlink drops key from the index and removes its file, under the write
// lock, reporting whether key was indexed.
func (d *Disk) unlink(key string) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	name, ok := d.index[key]
	if !ok {
		return false, nil
	}
	delete(d.index, key)
	if err := os.Remove(filepath.Join(d.dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return true, fmt.Errorf("store: deleting %s: %w", key, err)
	}
	return true, nil
}

// syncDir fsyncs the directory dir, making the renames and unlinks
// already done in it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Keys implements Store.
func (d *Disk) Keys() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	keys := make([]string, 0, len(d.index))
	for k := range d.index {
		keys = append(keys, k)
	}
	return keys
}

// Len implements Store.
func (d *Disk) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.index)
}

// Close implements Store. Entries stay on disk: a later OpenDisk on the
// same directory serves them again.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.index = nil
	return nil
}

// Stats implements StatsReporter. Disk never evicts: its bound is the
// filesystem.
func (d *Disk) Stats() Stats {
	return Stats{Kind: "disk", Tiers: map[string]int{"disk": d.Len()}}
}
