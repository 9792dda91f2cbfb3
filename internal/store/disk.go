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
	"unicode/utf8"
)

// Disk is a durable store: one file per fingerprint under a directory,
// written via an atomic temp-file-and-rename so a crash mid-write can
// never leave a half-visible entry, and followed by an fsync of the
// directory so an acknowledged Put or Delete survives a power loss.
// Opening the store reads and verifies every file on GOMAXPROCS workers
// and rebuilds the index, so a restarted process serves every entry its
// predecessor stored. The reader accepts exactly the bytes Put writes,
// and the files of the first format, which earlier versions wrote:
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

// The entry file Put writes (format 2) is one JSON header line followed
// by the raw content:
//
//	{"format":2,"key":<key>,"sum":"<hex>","body":<n>,"meta":<m>}\n<body><meta>
//
// <key> is the key as json.Marshal writes it, <hex> the 64 lowercase hex
// digits of envelopeSum(body, meta), <n> the body's length (-1 for a nil
// body) and <m> the meta's, both as strconv writes them; the file ends
// right after the meta. Reading a file is a slice by length and one
// SHA-256: nothing is decoded.
//
// Format 1, which earlier versions wrote, was json.Marshal of the
// format, key, sum, body and meta, with body and meta in base64 (a null
// body for a nil one, and no meta member for an empty one). Its files
// are still read, never written; a Put over one replaces it with format
// 2 under the same name, which is why both share the .rec.json suffix.
const (
	format2Prefix = `{"format":2,"key":`
	format1Prefix = `{"format":1,"key":`
)

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
// layout Put writes, or in format 1's; any other file is corrupt, and
// is skipped and removed, so a previous crash cannot wedge the store.
// Because Put and Delete fsync the directory, a reopen after a power
// loss finds every entry a Put acknowledged and none that a Delete
// removed.
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
// stores, or "" when it is unreadable, corrupt or not filed under
// fileName(key). The files are read on min(GOMAXPROCS, len(names))
// workers, each writing only its own indices' slots, and all are joined
// before it returns.
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
			var r fileReader
			for i := range next {
				keys[i] = r.verify(dir, names[i])
			}
		}()
	}
	wg.Wait()
	return keys
}

// fileReader verifies entry files for one open worker. Nothing it reads
// is kept but the key, so every file is read into the one buffer, with
// no os.ReadFile allocation or fstat per file, and a format-1 file's
// base64 content decoded into another.
type fileReader struct {
	file    bytes.Buffer
	content []byte
}

// verify returns the key stored in the named file in dir when the file
// is an intact envelope filed under fileName(key), or "".
func (r *fileReader) verify(dir, name string) string {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return ""
	}
	r.file.Reset()
	_, err = r.file.ReadFrom(f)
	f.Close() // only read
	if err != nil {
		return ""
	}
	env, ok := readEnvelope(r.file.Bytes())
	if !ok {
		return ""
	}
	key, ok := decodeKey(env.key)
	var want [2*sha256.Size + len(diskSuffix)]byte
	if !ok || string(appendFileName(want[:0], key)) != name {
		return ""
	}
	var e Entry
	if e, r.content, ok = env.entry(r.content); !ok || !env.intact(e) {
		return ""
	}
	return key
}

// Dir returns the directory backing the store.
func (d *Disk) Dir() string { return d.dir }

// fileName derives a filesystem-safe, collision-free name for a key.
// Keys are hashed rather than escaped so any fingerprint string — or
// any key at all — maps to a fixed-length portable name.
func fileName(key string) string {
	return string(appendFileName(nil, key))
}

// appendFileName appends fileName(key) to dst.
func appendFileName(dst []byte, key string) []byte {
	sum := sha256.Sum256([]byte(key))
	return append(hex.AppendEncode(dst, sum[:]), diskSuffix...)
}

// rawEnvelope is one stored file as readEnvelope matched it, aliasing
// the file's bytes: its format, the key's JSON string token with its
// quotes, the sum as written, and the body and meta — raw in format 2,
// base64 in format 1. body is nil for a nil body and meta is nil when
// the file has none.
type rawEnvelope struct {
	format               int
	key, sum, body, meta []byte
}

// readEnvelope matches b against the exact layout of either format. Any
// other layout — reordered, respaced, a length strconv would not write,
// or bytes past the meta — is reported as ok=false, like a file that is
// not an envelope at all. Decoding the key, and format 1's
// base64, and checking the sum are left to decodeKey, entry and intact.
func readEnvelope(b []byte) (env rawEnvelope, ok bool) {
	if rest, ok := bytes.CutPrefix(b, []byte(format2Prefix)); ok {
		return readFormat2(rest)
	}
	return readFormat1(b)
}

// readFormat2 matches the rest of a format-2 file after its prefix.
func readFormat2(b []byte) (env rawEnvelope, ok bool) {
	if env.key, b, ok = keyToken(b); !ok {
		return env, false
	}
	b, ok = bytes.CutPrefix(b, []byte(`,"sum":"`))
	if !ok || len(b) < 2*sha256.Size {
		return env, false
	}
	env.sum, b = b[:2*sha256.Size], b[2*sha256.Size:]
	if b, ok = bytes.CutPrefix(b, []byte(`","body":`)); !ok {
		return env, false
	}
	bodyLen := -1
	if after, isNil := bytes.CutPrefix(b, []byte("-1")); isNil {
		b = after
	} else if bodyLen, b, ok = length(b); !ok {
		return env, false
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"meta":`)); !ok {
		return env, false
	}
	metaLen, b, ok := length(b)
	if !ok {
		return env, false
	}
	if b, ok = bytes.CutPrefix(b, []byte("}\n")); !ok || len(b) < metaLen || len(b)-metaLen != max(bodyLen, 0) {
		return env, false
	}
	if bodyLen >= 0 {
		env.body, b = b[:bodyLen:bodyLen], b[bodyLen:]
	}
	if metaLen > 0 {
		env.meta = b[:metaLen:metaLen]
	}
	env.format = 2
	return env, true
}

// length cuts a length off the front of b, written the way strconv
// writes a non-negative int: "0", or a nonzero digit and more digits. A
// length past the end of b cannot be one of b's slices, and is rejected
// too.
func length(b []byte) (n int, rest []byte, ok bool) {
	var v uint64
	i := 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		if i == 18 {
			return 0, nil, false // longer than any file; v cannot overflow
		}
		v = v*10 + uint64(b[i]-'0')
	}
	if i == 0 || (b[0] == '0' && i > 1) || v > uint64(len(b)) {
		return 0, nil, false
	}
	return int(v), b[i:], true
}

// readFormat1 matches b against the exact layout json.Marshal gave a
// format-1 envelope:
//
//	{"format":1,"key":<JSON string>,"sum":"<hex>","body":<base64 string or null>}
//
// with ,"meta":"<base64>" before the closing brace when meta is not
// empty. The sum and the base64 strings are taken verbatim and must
// need no unquoting (the writer's never did).
func readFormat1(b []byte) (env rawEnvelope, ok bool) {
	rest, ok := bytes.CutPrefix(b, []byte(format1Prefix))
	if !ok {
		return env, false
	}
	if env.key, rest, ok = keyToken(rest); !ok {
		return env, false
	}
	if env.sum, rest, ok = field(rest, `,"sum":`); !ok {
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
	env.format = 1
	return env, string(rest) == "}"
}

// keyToken cuts the key's JSON string token, quotes included, off the
// front of b. It only finds where the token ends — skipping the byte
// after each backslash — and leaves validating it to decodeKey; the
// empty key, which Put refuses, is rejected here.
func keyToken(b []byte) (tok, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	for i := 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return b[:i+1], b[i+1:], i > 1
		}
	}
	return nil, nil, false
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

// plainKey reports whether the key token tok needs no unescaping and is
// what json.Marshal writes for its contents: printable ASCII without
// the quote, the backslash, or the <, > and & that json.Marshal escapes.
func plainKey(tok []byte) bool {
	for _, c := range tok[1 : len(tok)-1] {
		if c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// decodeKey returns the key the token tok holds, provided tok is
// exactly what json.Marshal writes for that key; encoding/json decodes
// only a token with escapes or bytes outside plainKey's set.
func decodeKey(tok []byte) (string, bool) {
	if plainKey(tok) {
		return string(tok[1 : len(tok)-1]), true
	}
	var key string
	if json.Unmarshal(tok, &key) != nil {
		return "", false
	}
	canonical, err := json.Marshal(key)
	return key, err == nil && bytes.Equal(canonical, tok)
}

// holdsKey reports whether decodeKey(tok) is key, without allocating
// when tok is plain.
func holdsKey(tok []byte, key string) bool {
	if plainKey(tok) {
		return string(tok[1:len(tok)-1]) == key
	}
	k, ok := decodeKey(tok)
	return ok && k == key
}

// entry returns env's content. A format-2 entry aliases the file; a
// format-1 entry is decoded from base64 into buf, reallocated when it is
// too small, and aliases the returned buffer. A Get passes nil so that
// every entry it returns owns fresh memory.
func (env rawEnvelope) entry(buf []byte) (Entry, []byte, bool) {
	if env.format == 2 {
		return Entry{Body: env.body, Meta: env.meta}, buf, true
	}
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

// intact reports whether e, env's content, matches env's sum.
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
// intact envelope stored under key. The entry aliases the file's bytes,
// which this call alone owns.
func readEntry(path, key string) (Entry, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Entry{}, false
	}
	env, ok := readEnvelope(b)
	if !ok || !holdsKey(env.key, key) {
		return Entry{}, false
	}
	e, _, ok := env.entry(nil)
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

// encodeEnvelope returns the format-2 file Put writes for key and e.
func encodeEnvelope(key string, e Entry) []byte {
	tok, _ := json.Marshal(key) // a string always marshals
	sum := envelopeSum(e.Body, e.Meta)
	bodyLen := len(e.Body)
	if e.Body == nil {
		bodyLen = -1
	}
	b := make([]byte, 0, len(format2Prefix)+len(tok)+2*sha256.Size+64+len(e.Body)+len(e.Meta))
	b = append(append(b, format2Prefix...), tok...)
	b = hex.AppendEncode(append(b, `,"sum":"`...), sum[:])
	b = strconv.AppendInt(append(b, `","body":`...), int64(bodyLen), 10)
	b = strconv.AppendInt(append(b, `,"meta":`...), int64(len(e.Meta)), 10)
	b = append(b, "}\n"...)
	return append(append(b, e.Body...), e.Meta...)
}

// Put implements Store: encode the envelope, write it to a temp file
// in the same directory, fsync, atomically rename it into place, then
// fsync the directory so the rename itself is durable. It refuses a
// key that is empty or not valid UTF-8: the envelope's JSON string
// cannot carry such a key back, so no reader would match the file.
func (d *Disk) Put(key string, e Entry) error {
	if key == "" {
		return errors.New("store: Put with empty key")
	}
	if !utf8.ValidString(key) {
		return fmt.Errorf("store: Put with key %q that is not valid UTF-8", key)
	}
	b := encodeEnvelope(key, e)

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

// contains reports whether key is indexed, reading no file.
func (d *Disk) contains(key string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.index[key]
	return ok
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
