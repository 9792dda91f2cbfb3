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

// readFile is the disk tier's whole reader over one file's bytes:
// layout, key, base64 and checksum, as OpenDisk and Get apply them.
func readFile(b []byte) (diskEnvelope, bool) {
	env, ok := readEnvelope(b)
	if !ok {
		return diskEnvelope{}, false
	}
	e, _, ok := env.decode(nil)
	if !ok || !env.intact(e) {
		return diskEnvelope{}, false
	}
	return diskEnvelope{Format: diskFormat, Key: env.key, Sum: string(env.sum), Body: e.Body, Meta: e.Meta}, true
}

// sameBytes is bytes.Equal that also tells nil from empty.
func sameBytes(a, b []byte) bool {
	return (a == nil) == (b == nil) && bytes.Equal(a, b)
}

func sameEnvelope(a, b diskEnvelope) bool {
	return a.Format == b.Format && a.Key == b.Key && a.Sum == b.Sum &&
		sameBytes(a.Body, b.Body) && sameBytes(a.Meta, b.Meta)
}

// The keys and contents the writer must round-trip through the reader:
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

// TestEnvelopeRoundTrip: every file Put writes is accepted, and the
// reader returns what encoding/json decodes from it — which, for a key
// in valid UTF-8, is exactly the key and content Put was given (an
// empty meta is omitted, so it reads back nil, as it always has).
func TestEnvelopeRoundTrip(t *testing.T) {
	for _, key := range envelopeKeys {
		for bodyName, body := range envelopeContents {
			for metaName, meta := range envelopeContents {
				b, err := encodeEnvelope(key, Entry{Body: body, Meta: meta})
				if err != nil {
					t.Fatal(err)
				}
				got, ok := readFile(b)
				if !ok {
					t.Errorf("key %q, body %s, meta %s: Put's file rejected: %.200s", key, bodyName, metaName, b)
					continue
				}
				var want diskEnvelope
				if err := json.Unmarshal(b, &want); err != nil {
					t.Fatal(err)
				}
				if !sameEnvelope(got, want) {
					t.Errorf("key %q, body %s, meta %s: reader %+.80v, encoding/json %+.80v", key, bodyName, metaName, got, want)
				}
				if !bytes.Equal(got.Body, body) || !bytes.Equal(got.Meta, meta) || (got.Body == nil) != (body == nil) {
					t.Errorf("key %q, body %s, meta %s: content did not round-trip", key, bodyName, metaName)
				}
				if utf8.ValidString(key) && got.Key != key {
					t.Errorf("key %q read back as %q", key, got.Key)
				}
			}
		}
	}
}

// FuzzDiskEnvelope ties the reader to the writer from the other side:
// any file the reader accepts, encoding/json accepts too and decodes to
// the same format, key, sum, body and meta, nil told from empty. It
// checks every file whose layout and base64 the reader accepts, whatever
// its checksum, so mutations need not fix the sum up: of such a file,
// encoding/json must read the same key, body and meta, and reach the
// same checksum verdict. The reader compares the sum verbatim, so a sum
// that is not even a JSON string fails both.
//
//	go test -fuzz=FuzzDiskEnvelope -fuzztime=20s -run '^$' ./internal/store
func FuzzDiskEnvelope(f *testing.F) {
	for _, key := range envelopeKeys {
		for _, body := range envelopeContents {
			for _, meta := range envelopeContents {
				if len(body)+len(meta) > 1<<10 {
					continue // keep the seed corpus small
				}
				b, err := encodeEnvelope(key, Entry{Body: body, Meta: meta})
				if err != nil {
					f.Fatal(err)
				}
				f.Add(b)
			}
		}
	}
	// The corruptions TestDiskCorruptionReadsAsMiss applies to a stored
	// file: truncated, garbage, a flipped body byte, a flipped meta byte,
	// another key.
	good, err := encodeEnvelope("sha256:1", Entry{Body: []byte(`{"value":1}`), Meta: []byte(`{"meta":1}`)})
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

	f.Fuzz(func(t *testing.T, b []byte) {
		env, ok := readEnvelope(b)
		if !ok {
			return
		}
		e, _, ok := env.decode(nil)
		if !ok {
			return
		}
		intact := env.intact(e)
		var want diskEnvelope
		if err := json.Unmarshal(b, &want); err != nil {
			if intact {
				t.Fatalf("reader accepts %q; encoding/json rejects it: %v", b, err)
			}
			return
		}
		got := diskEnvelope{Format: diskFormat, Key: env.key, Sum: want.Sum, Body: e.Body, Meta: e.Meta}
		if intact {
			got.Sum = string(env.sum)
		}
		if !sameEnvelope(got, want) {
			t.Fatalf("%q: reader read %+v, encoding/json %+v", b, got, want)
		}
		sum := envelopeSum(want.Body, want.Meta)
		if jsonIntact := want.Sum == hex.EncodeToString(sum[:]); intact != jsonIntact {
			t.Fatalf("%q: reader's checksum verdict %v, encoding/json's %v", b, intact, jsonIntact)
		}
	})
}

// TestDiskOpensGoldenDir: a cache directory written by the Put of the
// first disk format's writer (testdata/disk-v1) still opens, and every
// entry reads back byte for byte, nil and empty kept apart.
func TestDiskOpensGoldenDir(t *testing.T) {
	src := filepath.Join("testdata", "disk-v1")
	dir := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]Entry{
		"sha256:9f2c4e0d1b7a6c5e3f8d2a1b0c9e8f7a6b5c4d3e2f1a0b9c8d7e6f5a4b3c2d1e": {
			Body: []byte(`{"fingerprint":"sha256:9f2c4e0d1b7a6c5e3f8d2a1b0c9e8f7a6b5c4d3e2f1a0b9c8d7e6f5a4b3c2d1e","method":"aarc","assignment":{"a":{"cpu":2,"mem_mb":1024},"b":{"cpu":4,"mem_mb":2048}},"e2e_ms":812.5,"cost":0.0042}`),
			Meta: []byte(`{"spec":{"name":"golden","slo_ms":1000,"nodes":[{"id":"a"},{"id":"b","deps":["a"]}]},"method":"aarc","method_version":1,"seed":42}`),
		},
		"key <&\"\\ \u2028 \x01 café": {Body: []byte{}},
		"sha256:null-body":            {Meta: []byte("meta only\n")},
	}
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Len() != len(want) || len(files) != len(want) {
		t.Fatalf("indexed %d of %d golden files, want %d", d.Len(), len(files), len(want))
	}
	for key, w := range want {
		got, ok, err := d.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get(%q) = ok=%v err=%v", key, ok, err)
		}
		if !sameBytes(got.Body, w.Body) || !sameBytes(got.Meta, w.Meta) {
			t.Errorf("Get(%q) = %q %q, want %q %q", key, got.Body, got.Meta, w.Body, w.Meta)
		}
	}
}

// TestDiskGetAllocs pins a disk hit's allocations on an entry shaped
// like a stored recommendation (~0.5 KB body, ~8.4 KB meta): the path
// join, five in os.ReadFile, three decoding the key, and one buffer for
// body and meta. Decoding the whole file with encoding/json took 20.
func TestDiskGetAllocs(t *testing.T) {
	const want = 10
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
// every intact file and removes every other one — truncated, filed
// under another key's name, or a leftover temp file — however the
// files fall to its workers.
func TestDiskOpenKeepsExactlyTheIntactFiles(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	key := func(i int) string { return "sha256:" + strconv.Itoa(i) }
	entry := func(i int) Entry {
		return Entry{Body: []byte(`{"value":` + strconv.Itoa(i) + `}`), Meta: bytes.Repeat([]byte{byte(i)}, i)}
	}
	for i := 0; i < n; i++ {
		if err := d.Put(key(i), entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
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
	// Entry 1's intact file under entry 1000's name is misfiled.
	b, err := os.ReadFile(path(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path(1000), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"1"), b, 0o644); err != nil {
		t.Fatal(err)
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
