package workflow

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// StrictReader reads a JSON document in one pass over its bytes, straight
// into the values its caller asks for. It handles exactly the layouts that
// json.Marshal and EncodeSpec emit, with whitespace anywhere JSON allows
// it: exact-case known keys, each at most once; strings of printable ASCII
// without escapes; numbers in the JSON grammar, parsed by strconv as
// encoding/json parses them; true and false; null for a definition's
// nodes or edges, as json.Marshal writes a nil slice; nothing but
// whitespace after the top-level value.
//
// On anything else the reader declines: End reports false, and every read
// after the first deviation returns a zero value, so a caller reads a whole
// document straight through and checks End once. A decline is not an
// error. The caller decodes the same bytes with encoding/json instead,
// which keeps everything the reader leaves out — case-folded and repeated
// keys, other nulls, escapes, unknown members, trailing data — and its
// errors.
// Whatever the reader accepts, encoding/json decodes to the same values.
type StrictReader struct {
	b   []byte
	i   int
	bad bool
}

// NewStrictReader returns a reader over b.
func NewStrictReader(b []byte) *StrictReader { return &StrictReader{b: b} }

// End reports whether the reader accepted everything read so far and only
// whitespace remains.
func (r *StrictReader) End() bool {
	r.ws()
	return !r.bad && r.i == len(r.b)
}

func (r *StrictReader) decline() { r.bad = true }

func (r *StrictReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// Expect consumes the byte c, after optional whitespace.
func (r *StrictReader) Expect(c byte) {
	r.ws()
	if r.bad || r.i >= len(r.b) || r.b[r.i] != c {
		r.decline()
		return
	}
	r.i++
}

// More reports whether the object or array whose opening byte was just
// consumed has an n-th member (n counting from 0), consuming the comma
// before it. When it has none, More consumes the closing byte close.
func (r *StrictReader) More(close byte, n int) bool {
	r.ws()
	if r.bad || r.i >= len(r.b) {
		r.decline()
		return false
	}
	if r.b[r.i] == close {
		r.i++
		return false
	}
	if n > 0 {
		if r.b[r.i] != ',' {
			r.decline()
			return false
		}
		r.i++
	}
	return true
}

// Key reads a member name and its colon and returns the entry of names it
// equals. A name not in names, or one whose bit (its index in names) is
// already set in seen, declines; otherwise Key sets the bit.
func (r *StrictReader) Key(seen *uint64, names []string) string {
	if k := r.key(seen, names); k >= 0 {
		return names[k]
	}
	return ""
}

// key is Key returning the name's index in names, -1 when it declined.
func (r *StrictReader) key(seen *uint64, names []string) int {
	k := r.quoted()
	r.Expect(':')
	// Members mostly come in names' order, as json.Marshal writes them,
	// so the search starts after the last name read.
	start := bits.Len64(*seen)
	for j := range names {
		i := start + j
		if i >= len(names) {
			i -= len(names)
		}
		if string(k) == names[i] {
			if *seen&(1<<i) != 0 {
				break
			}
			*seen |= 1 << i
			return i
		}
	}
	r.decline()
	return -1
}

// quoted reads a string token and returns the bytes between its quotes.
func (r *StrictReader) quoted() []byte { return r.quotedSpan().in(r.b) }

// quotedSpan is quoted returning where the bytes sit.
func (r *StrictReader) quotedSpan() span {
	r.ws()
	if r.bad || r.i >= len(r.b) || r.b[r.i] != '"' {
		r.decline()
		return span{}
	}
	start := r.i + 1
	i := start
	for i < len(r.b) && plain[r.b[i]] {
		i++
	}
	if i == len(r.b) || r.b[i] != '"' {
		r.decline()
		return span{}
	}
	r.i = i + 1
	return span{int32(start), int32(i)}
}

// plain marks the bytes a string the reader accepts holds as they are:
// printable ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// Text reads a string.
func (r *StrictReader) Text() string { return string(r.quoted()) }

// null consumes a null token, when one comes next.
func (r *StrictReader) null() bool {
	r.ws()
	if r.bad || len(r.b)-r.i < 4 || string(r.b[r.i:r.i+4]) != "null" {
		return false
	}
	r.i += 4
	return true
}

// boolean reads true or false.
func (r *StrictReader) boolean() bool {
	r.ws()
	rest := r.b[r.i:]
	switch {
	case r.bad:
	case len(rest) >= 4 && string(rest[:4]) == "true":
		r.i += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		r.i += 5
		return false
	default:
		r.decline()
	}
	return false
}

// number reads a token in the JSON number grammar and returns its bytes.
func (r *StrictReader) number() []byte { return r.numberSpan().in(r.b) }

// numberSpan is number returning where the token sits.
func (r *StrictReader) numberSpan() span {
	r.ws()
	b, i := r.b, r.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := true
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		i, ok = digits(b, i)
	}
	if ok && i < len(b) && b[i] == '.' {
		i, ok = digits(b, i+1)
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		i, ok = digits(b, i)
	}
	if !ok {
		r.decline()
		return span{}
	}
	start := r.i
	r.i = i
	return span{int32(start), int32(i)}
}

// digits skips the decimal digits of b from i on; ok reports whether
// there was at least one.
func digits(b []byte, i int) (end int, ok bool) {
	end = i
	for end < len(b) && '0' <= b[end] && b[end] <= '9' {
		end++
	}
	return end, end > i
}

// Float reads a number into a float64, declining when it is out of range.
func (r *StrictReader) Float() float64 {
	tok := r.number()
	if r.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		r.decline()
		return 0
	}
	return f
}

// Int reads a number into an int, declining on a fraction, an exponent or
// a value out of range.
func (r *StrictReader) Int() int {
	tok := r.number()
	if r.bad {
		return 0
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		r.decline()
		return 0
	}
	return int(n)
}

// Uint reads a number into a uint64, declining on a sign, a fraction, an
// exponent or a value out of range.
func (r *StrictReader) Uint() uint64 {
	tok := r.number()
	if r.bad {
		return 0
	}
	n, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		r.decline()
		return 0
	}
	return n
}

// A Doc is a workflow definition as submitted, in the DecodeSpec format,
// read but not built: where each of its values sits in the bytes it was
// read from. Its numbers are parsed only when it is built (Spec), so its
// canonical bytes (CanonicalJSON) are written without parsing or
// formatting one.
type Doc struct {
	b          []byte // the bytes the spans index
	start, end int    // the definition object's extent in b
	name, slo  span
	nodes      []wireNode // in the order read; nil when the member is absent or null
	edges      [][2]span  // in the order read; nil when the member is absent or null
	base       [2]span    // in configKeys order
	limits     [6]span    // in limitsKeys order, when hasLimits
	hasLimits  bool
}

// A span is the bytes b[off:end] of the buffer a Doc or a canonicalForm
// reads: a string's content between its quotes, or a number token. An
// empty span is a member left out, or an empty string, which builds and
// writes as one left out.
type span struct{ off, end int32 }

func (s span) in(b []byte) []byte { return b[s.off:s.end] }

func (s span) empty() bool { return s.off == s.end }

// A wireNode is one node of a Doc or a canonicalForm: its id, its group,
// and its profile's numbers in profileKeys order, input_sensitive aside.
type wireNode struct {
	id, group span
	profile   [8]span
	sensitive bool
}

// Spec builds and validates the definition, as DecodeSpec does. A number
// outside float64's range, which the reader leaves to this step, sends
// the definition's bytes to encoding/json, as a decline does, and its
// error is the one returned.
func (d *Doc) Spec() (*Spec, error) {
	sj, ok := d.parse()
	if !ok {
		std, err := jsonDoc(d.b[d.start:d.end])
		if err != nil {
			return nil, fmt.Errorf("workflow: decoding spec: %w", err)
		}
		sj = *std
	}
	return buildSpec(&sj)
}

// SLOMS parses the definition's slo_ms, 0 when it has none; ok is false
// when the number is out of range.
func (d *Doc) SLOMS() (slo float64, ok bool) {
	p := parser{b: d.b, ok: true}
	return p.float(d.slo), p.ok
}

// parse reads the document into the values encoding/json decodes it to;
// ok is false when a number is out of range.
func (d *Doc) parse() (sj specJSON, ok bool) {
	p := parser{b: d.b, ok: true}
	sj.Name = string(d.name.in(d.b))
	sj.SLOMS = p.float(d.slo)
	if d.nodes != nil {
		sj.Nodes = make([]nodeJSON, len(d.nodes))
	}
	for i := range d.nodes {
		n, pr := &d.nodes[i], &d.nodes[i].profile
		sj.Nodes[i] = nodeJSON{
			ID:    string(n.id.in(d.b)),
			Group: string(n.group.in(d.b)),
			Profile: profileJSON{
				CPUWorkMS:      p.float(pr[0]),
				ParallelFrac:   p.float(pr[1]),
				MaxParallel:    p.float(pr[2]),
				IOMS:           p.float(pr[3]),
				FootprintMB:    p.float(pr[4]),
				MinMemMB:       p.float(pr[5]),
				PressureK:      p.float(pr[6]),
				NoiseStd:       p.float(pr[7]),
				InputSensitive: n.sensitive,
			},
		}
	}
	if d.edges != nil {
		sj.Edges = make([][2]string, len(d.edges))
	}
	for i, e := range d.edges {
		sj.Edges[i] = [2]string{string(e[0].in(d.b)), string(e[1].in(d.b))}
	}
	sj.Base = configJSON{CPU: p.float(d.base[0]), MemMB: p.float(d.base[1])}
	if d.hasLimits {
		l := &d.limits
		sj.Limits = &limitsJSON{
			MinCPU: p.float(l[0]), MaxCPU: p.float(l[1]), CPUStep: p.float(l[2]),
			MinMemMB: p.float(l[3]), MaxMemMB: p.float(l[4]), MemStepMB: p.float(l[5]),
		}
	}
	return sj, p.ok
}

// parser parses a document's number spans as encoding/json parses
// numbers, an empty span as 0, and keeps whether every one was in range.
type parser struct {
	b  []byte
	ok bool
}

func (p *parser) float(s span) float64 {
	if s.empty() {
		return 0
	}
	f, err := strconv.ParseFloat(string(s.in(p.b)), 64)
	if err != nil {
		p.ok = false
	}
	return f
}

// The member names of the DecodeSpec format, in the order of the fields
// they fill (a test holds them to the json tags).
var (
	specKeys    = []string{"name", "slo_ms", "nodes", "edges", "base", "limits"}
	nodeKeys    = []string{"id", "group", "profile"}
	profileKeys = []string{"cpu_work_ms", "parallel_frac", "max_parallel", "io_ms", "footprint_mb", "min_mem_mb", "pressure_k", "noise_std", "input_sensitive"}
	configKeys  = []string{"cpu", "mem_mb"}
	limitsKeys  = []string{"min_cpu", "max_cpu", "cpu_step", "min_mem_mb", "max_mem_mb", "mem_step_mb"}
)

// Spec reads a workflow definition object in the DecodeSpec format,
// recording where each value sits and parsing no number. It returns nil
// when the reader declined.
func (r *StrictReader) Spec() *Doc {
	if len(r.b) > math.MaxInt32 { // past what a span holds: encoding/json reads it
		r.decline()
		return nil
	}
	r.ws()
	d := &Doc{b: r.b, start: r.i}
	var seen uint64
	r.Expect('{')
	for n := 0; r.More('}', n); n++ {
		switch r.Key(&seen, specKeys) {
		case "name":
			d.name = r.quotedSpan()
		case "slo_ms":
			d.slo = r.numberSpan()
		case "nodes":
			if r.null() {
				break
			}
			// Sized from the bytes left, which EncodeSpec spends 230-290 of
			// a node, up to 64 nodes: a batch body holds more specs after.
			d.nodes = make([]wireNode, 0, min((len(r.b)-r.i)/256+1, 64))
			r.Expect('[')
			for m := 0; r.More(']', m); m++ {
				d.nodes = append(d.nodes, r.node())
			}
		case "edges":
			if r.null() { // as json.Marshal writes a nil slice
				break
			}
			d.edges = make([][2]span, 0, 2*len(d.nodes)+1) // generated specs have under two edges a node
			r.Expect('[')
			for m := 0; r.More(']', m); m++ {
				var e [2]span
				r.Expect('[')
				e[0] = r.quotedSpan()
				r.Expect(',')
				e[1] = r.quotedSpan()
				r.Expect(']')
				d.edges = append(d.edges, e)
			}
		case "base":
			r.numbers(d.base[:], configKeys)
		case "limits":
			d.hasLimits = true
			r.numbers(d.limits[:], limitsKeys)
		}
	}
	if r.bad {
		return nil
	}
	d.end = r.i
	return d
}

func (r *StrictReader) node() wireNode {
	var n wireNode
	var seen uint64
	r.Expect('{')
	for i := 0; r.More('}', i); i++ {
		switch r.Key(&seen, nodeKeys) {
		case "id":
			n.id = r.quotedSpan()
		case "group":
			n.group = r.quotedSpan()
		case "profile":
			var pseen uint64
			r.Expect('{')
			for j := 0; r.More('}', j); j++ {
				switch k := r.key(&pseen, profileKeys); {
				case k == len(n.profile):
					n.sensitive = r.boolean()
				case k >= 0:
					n.profile[k] = r.numberSpan()
				}
			}
		}
	}
	return n
}

// numbers reads an object of number members named by keys into spans,
// one per key.
func (r *StrictReader) numbers(spans []span, keys []string) {
	var seen uint64
	r.Expect('{')
	for i := 0; r.More('}', i); i++ {
		if k := r.key(&seen, keys); k >= 0 {
			spans[k] = r.numberSpan()
		}
	}
}
