package store

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// diskEnvelope is a format-1 entry file as json.Marshal wrote it. Body
// and Meta are base64 in JSON ([]byte marshaling), and Sum is the hex of
// envelopeSum. The store no longer writes it; it is the tests' format-1
// writer and, with encoding/json, the oracle for the format-1 reader.
type diskEnvelope struct {
	Format int    `json:"format"`
	Key    string `json:"key"`
	Sum    string `json:"sum"`
	Body   []byte `json:"body"`
	Meta   []byte `json:"meta,omitempty"`
}

// encodeEnvelopeV1 returns the file a format-1 Put wrote for key and e.
func encodeEnvelopeV1(key string, e Entry) ([]byte, error) {
	sum := envelopeSum(e.Body, e.Meta)
	return json.Marshal(diskEnvelope{
		Format: 1,
		Key:    key,
		Sum:    hex.EncodeToString(sum[:]),
		Body:   e.Body,
		Meta:   e.Meta,
	})
}

// readFile is the disk tier's whole reader over one file's bytes:
// layout, key, content and checksum, as OpenDisk and Get apply them.
func readFile(b []byte) (diskEnvelope, bool) {
	env, ok := readEnvelope(b)
	if !ok {
		return diskEnvelope{}, false
	}
	key, ok := decodeKey(env.key)
	if !ok {
		return diskEnvelope{}, false
	}
	e, _, ok := env.entry(nil)
	if !ok || !env.intact(e) {
		return diskEnvelope{}, false
	}
	return diskEnvelope{Format: env.format, Key: key, Sum: string(env.sum), Body: e.Body, Meta: e.Meta}, true
}

// sameBytes is bytes.Equal that also tells nil from empty.
func sameBytes(a, b []byte) bool {
	return (a == nil) == (b == nil) && bytes.Equal(a, b)
}

func sameEnvelope(a, b diskEnvelope) bool {
	return a.Format == b.Format && a.Key == b.Key && a.Sum == b.Sum &&
		sameBytes(a.Body, b.Body) && sameBytes(a.Meta, b.Meta)
}

// The keys and contents the writers must round-trip through the reader:
// every character json.Marshal escapes (HTML, U+2028, control bytes,
// quotes and backslashes), non-ASCII text, invalid UTF-8, and bodies and
// metas that are nil, empty and large.
var (
	envelopeKeys = []string{
		"sha256:" + strings.Repeat("0123456789abcdef", 4),
		"a<b>c",
		"x&y",
		`quote " inside`,
		`back\slash`,
		"line\u2028separator\u2029",
		"bell\x07tab\tnul\x00",
		"café ☕ 鍵",
		"bad utf8 \xff\xfe end",
	}
	envelopeContents = map[string][]byte{
		"nil":   nil,
		"empty": {},
		"64KB":  bytes.Repeat([]byte(`{"spec":"é\n<&>"}`), 4<<10)[:64<<10],
	}
)

// TestEnvelopeRoundTrip: every file either writer writes for a key in
// valid UTF-8 is accepted. A format-2 file — what Put writes — reads
// back exactly the key, body and meta it was given, a nil body told
// from an empty one (an empty meta reads back nil, as it always has). A
// format-1 file reads back what encoding/json decodes from it. For a key
// that is not valid UTF-8, json.Marshal writes \ufffd escapes no key
// marshals to, so both files are rejected: such a key's entry was never
// served, as its file's key never matched it.
func TestEnvelopeRoundTrip(t *testing.T) {
	for _, key := range envelopeKeys {
		for bodyName, body := range envelopeContents {
			for metaName, meta := range envelopeContents {
				e := Entry{Body: body, Meta: meta}
				b1, err := encodeEnvelopeV1(key, e)
				if err != nil {
					t.Fatal(err)
				}
				if !utf8.ValidString(key) {
					if _, ok := readFile(encodeEnvelope(key, e)); ok {
						t.Errorf("key %q: format-2 file accepted", key)
					}
					if _, ok := readFile(b1); ok {
						t.Errorf("key %q: format-1 file accepted", key)
					}
					continue
				}
				got, ok := readFile(encodeEnvelope(key, e))
				if !ok {
					t.Errorf("key %q, body %s, meta %s: Put's file rejected", key, bodyName, metaName)
					continue
				}
				if got.Format != 2 || !sameBytes(got.Body, body) || !bytes.Equal(got.Meta, meta) || (got.Meta == nil) != (len(meta) == 0) {
					t.Errorf("key %q, body %s, meta %s: format %d, content did not round-trip", key, bodyName, metaName, got.Format)
				}
				if got.Key != key {
					t.Errorf("key %q read back as %q", key, got.Key)
				}

				got, ok = readFile(b1)
				if !ok {
					t.Errorf("key %q, body %s, meta %s: format-1 file rejected: %.200s", key, bodyName, metaName, b1)
					continue
				}
				var want diskEnvelope
				if err := json.Unmarshal(b1, &want); err != nil {
					t.Fatal(err)
				}
				if !sameEnvelope(got, want) {
					t.Errorf("key %q, body %s, meta %s: reader %+.80v, encoding/json %+.80v", key, bodyName, metaName, got, want)
				}
			}
		}
	}
}

// FuzzDiskEnvelope ties the reader to the writers from the other side,
// with one property per format. Both check every file whose layout and
// key the reader accepts, whatever its checksum, so mutations need not
// fix the sum up.
//
// Format 2: the writer, given the key, body and meta the reader read,
// reproduces the file byte for byte but for the 64 bytes of the sum;
// and the reader calls the file intact exactly when the writer's sum
// matches it too, that is when the writer reproduces the whole file.
//
// Format 1: encoding/json accepts the file too and decodes the same
// key, body and meta, nil told from empty, and reaches the same checksum
// verdict. The reader compares the sum verbatim, so a sum that is not
// even a JSON string fails both. The one allowed split is DESIGN §8's
// contract, under which any layout other than the writer's is corrupt:
// a sum written with a JSON escape, which the reader refuses and
// encoding/json unescapes, provided the format-1 writer never wrote that
// file.
//
//	go test -fuzz='^FuzzDiskEnvelope$' -fuzztime=20s -fuzzminimizetime=1s -run '^$' ./internal/store
func FuzzDiskEnvelope(f *testing.F) {
	for _, key := range envelopeKeys {
		for _, body := range envelopeContents {
			for _, meta := range envelopeContents {
				if len(body)+len(meta) > 1<<10 {
					continue // keep the seed corpus small
				}
				b, err := encodeEnvelopeV1(key, Entry{Body: body, Meta: meta})
				if err != nil {
					f.Fatal(err)
				}
				f.Add(b)
			}
		}
	}
	// The corruptions TestDiskCorruptionReadsAsMiss applies to a stored
	// file: truncated, garbage, a flipped body byte, a flipped meta byte,
	// another key; and a byte before the closing brace.
	e := Entry{Body: []byte(`{"value":1}`), Meta: []byte(`{"meta":1}`)}
	good, err := encodeEnvelopeV1("sha256:1", e)
	if err != nil {
		f.Fatal(err)
	}
	flip := func(after string) []byte {
		b := bytes.Clone(good)
		i := bytes.Index(b, []byte(after)) + len(after)
		b[i] ^= 'A' ^ 'B'
		return b
	}
	f.Add(good[:len(good)/2])
	f.Add([]byte("\x00\xffnot json at all"))
	f.Add(flip(`"body":"`))
	f.Add(flip(`"meta":"`))
	f.Add(bytes.Replace(good, []byte("sha256:1"), []byte("sha256:2"), 1))
	f.Add(append(bytes.Clone(good[:len(good)-1]), "x}"...))

	for _, key := range envelopeKeys {
		for _, body := range envelopeContents {
			for _, meta := range envelopeContents {
				if len(body)+len(meta) <= 1<<10 {
					f.Add(encodeEnvelope(key, Entry{Body: body, Meta: meta}))
				}
			}
		}
	}
	good = encodeEnvelope("sha256:1", e)
	header := bytes.IndexByte(good, '\n') + 1
	f.Add(good[:len(good)/2])
	f.Add(bytes.Clone(good[:header]))
	f.Add(append(bytes.Clone(good), 0))
	for _, i := range []int{header, len(good) - 1} { // a body byte, a meta byte
		b := bytes.Clone(good)
		b[i] ^= 1
		f.Add(b)
	}
	f.Add(bytes.Replace(good, []byte("sha256:1"), []byte("sha256:2"), 1))
	// Lengths strconv would not write: a leading zero, a sign, minus
	// zero, a bare minus.
	nilBody := encodeEnvelope("sha256:1", Entry{Meta: e.Meta})
	emptyBody := encodeEnvelope("sha256:1", Entry{Body: []byte{}, Meta: e.Meta})
	for _, c := range []struct {
		file     []byte
		from, to string
	}{
		{good, `"body":11,`, `"body":011,`},
		{good, `"body":11,`, `"body":+11,`},
		{good, `"meta":10}`, `"meta":010}`},
		{emptyBody, `"body":0,`, `"body":-0,`},
		{nilBody, `"body":-1,`, `"body":-,`},
		{nilBody, `"body":-1,`, `"body":-01,`},
	} {
		f.Add(bytes.Replace(c.file, []byte(c.from), []byte(c.to), 1))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		env, ok := readEnvelope(b)
		if !ok {
			return
		}
		key, ok := decodeKey(env.key)
		if !ok {
			return
		}
		e, _, ok := env.entry(nil)
		if !ok {
			return
		}
		intact := env.intact(e)
		if env.format == 2 {
			put := encodeEnvelope(key, e)
			sumAt := len(format2Prefix) + len(env.key) + len(`,"sum":"`)
			whole := bytes.Equal(put, b)
			copy(put[sumAt:], env.sum)
			if !bytes.Equal(put, b) {
				t.Fatalf("%q: reader read key %q, body %q, meta %q; the writer writes %q", b, key, e.Body, e.Meta, put)
			}
			if intact != whole {
				t.Fatalf("%q: reader's checksum verdict %v; the writer's sum matches: %v", b, intact, whole)
			}
			return
		}
		var want diskEnvelope
		if err := json.Unmarshal(b, &want); err != nil {
			if intact {
				t.Fatalf("reader accepts %q; encoding/json rejects it: %v", b, err)
			}
			return
		}
		got := diskEnvelope{Format: env.format, Key: key, Sum: want.Sum, Body: e.Body, Meta: e.Meta}
		if intact {
			got.Sum = string(env.sum)
		}
		if !sameEnvelope(got, want) {
			t.Fatalf("%q: reader read %+v, encoding/json %+v", b, got, want)
		}
		sum := envelopeSum(want.Body, want.Meta)
		jsonIntact := want.Sum == hex.EncodeToString(sum[:])
		if intact == jsonIntact {
			return
		}
		if intact || bytes.IndexByte(env.sum, '\\') < 0 {
			t.Fatalf("%q: reader's checksum verdict %v, encoding/json's %v", b, intact, jsonIntact)
		}
		put, err := encodeEnvelopeV1(want.Key, Entry{Body: want.Body, Meta: want.Meta})
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(put, b) {
			t.Fatalf("%q: the format-1 writer wrote an escaped sum the reader calls corrupt", b)
		}
	})
}

// goldenEntries are the entries of the golden cache directories: a
// stored recommendation, an empty body under a key full of escapes, and
// a nil body with metadata.
var goldenEntries = map[string]Entry{
	"sha256:9f2c4e0d1b7a6c5e3f8d2a1b0c9e8f7a6b5c4d3e2f1a0b9c8d7e6f5a4b3c2d1e": {
		Body: []byte(`{"fingerprint":"sha256:9f2c4e0d1b7a6c5e3f8d2a1b0c9e8f7a6b5c4d3e2f1a0b9c8d7e6f5a4b3c2d1e","method":"aarc","assignment":{"a":{"cpu":2,"mem_mb":1024},"b":{"cpu":4,"mem_mb":2048}},"e2e_ms":812.5,"cost":0.0042}`),
		Meta: []byte(`{"spec":{"name":"golden","slo_ms":1000,"nodes":[{"id":"a"},{"id":"b","deps":["a"]}]},"method":"aarc","method_version":1,"seed":42}`),
	},
	"key <&\"\\ \u2028 \x01 café": {Body: []byte{}},
	"sha256:null-body":            {Meta: []byte("meta only\n")},
}

// TestDiskOpensGoldenDir: a cache directory written by the Put of the
// first disk format's writer (testdata/disk-v1) still opens, and every
// entry reads back byte for byte, nil and empty kept apart.
func TestDiskOpensGoldenDir(t *testing.T) {
	openGoldenDir(t, filepath.Join("testdata", "disk-v1"), 1)
}

// TestDiskOpensGoldenDirV2: the same entries as written by the Put of
// format 2 (testdata/disk-v2) open and read back alike.
func TestDiskOpensGoldenDirV2(t *testing.T) {
	openGoldenDir(t, filepath.Join("testdata", "disk-v2"), 2)
}

// openGoldenDir opens a copy of the golden directory src, whose files
// are all in the given format, and checks that it holds goldenEntries.
func openGoldenDir(t *testing.T, src string, format int) {
	dir := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte(`{"format":` + strconv.Itoa(format) + `,`)
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, prefix) {
			t.Fatalf("%s is not a format-%d file: %.40q", f.Name(), format, b)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != len(goldenEntries) || len(files) != len(goldenEntries) {
		t.Fatalf("indexed %d of %d golden files, want %d", d.Len(), len(files), len(goldenEntries))
	}
	for key, w := range goldenEntries {
		got, ok, err := d.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get(%q) = ok=%v err=%v", key, ok, err)
		}
		if !sameBytes(got.Body, w.Body) || !sameBytes(got.Meta, w.Meta) {
			t.Errorf("Get(%q) = %q %q, want %q %q", key, got.Body, got.Meta, w.Body, w.Meta)
		}
	}
}

// TestPutReplacesFormat1File: a Put over a key whose file is still in
// format 1 replaces that file, under the same name, with a format-2 one.
func TestPutReplacesFormat1File(t *testing.T) {
	dir := t.TempDir()
	const key = "sha256:stored-in-format-1"
	if err := WriteFormat1(dir, key, Entry{Body: []byte("old")}); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := d.Get(key); !ok || err != nil || string(got.Body) != "old" {
		t.Fatalf("Get before the Put = %q ok=%v err=%v", got.Body, ok, err)
	}
	want := Entry{Body: []byte("new"), Meta: []byte("meta")}
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	d.Close()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != fileName(key) {
		t.Fatalf("files after the Put: %v, want only %s", files, fileName(key))
	}
	b, err := os.ReadFile(filepath.Join(dir, fileName(key)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, encodeEnvelope(key, want)) {
		t.Errorf("file after the Put = %q, want the format-2 file", b)
	}
}

// TestDiskPutRefusesUnreadableKey: Put refuses a key its envelope
// cannot carry back — empty, or not valid UTF-8 — directly and through
// a tiered store, and leaves neither an entry nor a temp file behind.
func TestDiskPutRefusesUnreadableKey(t *testing.T) {
	for name, key := range map[string]string{
		"empty":        "",
		"invalid-utf8": "bad utf8 \xff\xfe end",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			e := Entry{Body: []byte("body"), Meta: []byte("meta")}
			if err := d.Put(key, e); err == nil {
				t.Errorf("Disk.Put(%q) = nil, want an error", key)
			}
			tiered := NewTiered(NewMemory(4), d)
			if err := tiered.Put(key, e); err == nil {
				t.Errorf("Tiered(Memory, Disk).Put(%q) = nil, want an error", key)
			}
			if n := d.Len(); n != 0 {
				t.Errorf("disk holds %d entries after the refused Puts, want 0", n)
			}
			tiered.Close()
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				t.Errorf("file %s left in the directory", f.Name())
			}
		})
	}
}

// TestDiskGetEntryCapped: a Get's body and meta alias one file buffer,
// each capped at its length, so appending to the body cannot overwrite
// the meta.
func TestDiskGetEntryCapped(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("sha256:1", Entry{Body: []byte("body"), Meta: []byte("meta")}); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.Get("sha256:1")
	if !ok || err != nil {
		t.Fatalf("Get = ok=%v err=%v", ok, err)
	}
	_ = append(got.Body, "XXXX"...)
	if string(got.Meta) != "meta" {
		t.Errorf("appending to the body changed the meta to %q", got.Meta)
	}
}

// TestDiskGetAllocs pins a disk hit's allocations on an entry shaped
// like a stored recommendation (~0.5 KB body, ~8.4 KB meta): the path
// join, then five in os.ReadFile — the path's bytes for the open
// syscall, the os.File and the file it wraps, the FileInfo of its Stat,
// and the buffer the returned entry aliases. Reading the key takes none.
// The format-1 reader took 10 (three decoding the key, and a buffer for
// the decoded body and meta); decoding the whole file with
// encoding/json took 20.
func TestDiskGetAllocs(t *testing.T) {
	const want = 6
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const key = "sha256:0000000000000000000000000000000000000000000000000000000000000001"
	e := Entry{Body: bytes.Repeat([]byte("b"), 512), Meta: bytes.Repeat([]byte("m"), 8600)}
	if err := d.Put(key, e); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if got, ok, err := d.Get(key); !ok || err != nil || !bytes.Equal(got.Meta, e.Meta) {
			t.Fatalf("Get = ok=%v err=%v, want the stored entry", ok, err)
		}
	})
	if avg != want {
		t.Errorf("Disk.Get allocates %.1f times per call, want %d", avg, want)
	}
}

// TestDiskOpenKeepsExactlyTheIntactFiles: the parallel open indexes
// every intact file of either format and removes every other one —
// truncated or filed under another key's name, in either format, or a
// leftover temp file — however the files fall to its workers. Metas
// grow to 63 KB (84 KB of base64 in format 1), past the workers' first
// buffers, and come back intact whatever the order the files are read
// in.
func TestDiskOpenKeepsExactlyTheIntactFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	key := func(i int) string { return "sha256:" + strconv.Itoa(i) }
	entry := func(i int) Entry {
		return Entry{Body: []byte(`{"value":` + strconv.Itoa(i) + `}`), Meta: bytes.Repeat([]byte{byte(i)}, i<<10)}
	}
	for i := 0; i < n; i++ {
		if err := d.Put(key(i), entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	// Every fourth entry from entry 1 on is rewritten in format 1.
	for i := 1; i < n; i += 4 {
		if err := WriteFormat1(dir, key(i), entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	path := func(i int) string { return filepath.Join(dir, fileName(key(i))) }
	corrupt := map[int]bool{}
	for i := 0; i < n; i += 3 {
		b, err := os.ReadFile(path(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path(i), b[:len(b)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		corrupt[i] = true
	}
	// Entry 1's intact format-1 file under entry 1000's name is
	// misfiled, and so is entry 2's format-2 file under entry 1001's.
	for i, misfiled := range map[int]int{1: 1000, 2: 1001} {
		b, err := os.ReadFile(path(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path(misfiled), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, tmpPrefix+strconv.Itoa(i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d, err = OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if want := n - len(corrupt); d.Len() != want {
		t.Errorf("indexed %d entries, want %d", d.Len(), want)
	}
	for i := 0; i < n; i++ {
		got, ok, err := d.Get(key(i))
		switch {
		case err != nil:
			t.Fatal(err)
		case ok == corrupt[i]:
			t.Errorf("entry %d: hit=%v, corrupt=%v", i, ok, corrupt[i])
		case ok && (!bytes.Equal(got.Body, entry(i).Body) || !bytes.Equal(got.Meta, entry(i).Meta)):
			t.Errorf("entry %d read back wrong", i)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != d.Len() {
		t.Errorf("%d files left for %d entries: corrupt files survived the open", len(files), d.Len())
	}
}
