package workflow

import "strconv"

// StrictReader reads a JSON document in one pass over its bytes, straight
// into the values its caller asks for. It handles exactly the layouts that
// json.Marshal and EncodeSpec emit, with whitespace anywhere JSON allows
// it: exact-case known keys, each at most once; strings of printable ASCII
// without escapes; numbers in the JSON grammar, parsed by strconv as
// encoding/json parses them; true and false; nothing but whitespace after
// the top-level value.
//
// On anything else the reader declines: End reports false, and every read
// after the first deviation returns a zero value, so a caller reads a whole
// document straight through and checks End once. A decline is not an
// error. The caller decodes the same bytes with encoding/json instead,
// which keeps everything the reader leaves out — case-folded and repeated
// keys, null, escapes, unknown members, trailing data — and its errors.
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
	k := r.quoted()
	r.Expect(':')
	for i, name := range names {
		if string(k) == name {
			if *seen&(1<<i) != 0 {
				break
			}
			*seen |= 1 << i
			return name
		}
	}
	r.decline()
	return ""
}

// quoted reads a string token and returns the bytes between its quotes.
func (r *StrictReader) quoted() []byte {
	r.ws()
	if r.bad || r.i >= len(r.b) || r.b[r.i] != '"' {
		r.decline()
		return nil
	}
	start := r.i + 1
	for i := start; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case c == '"':
			r.i = i + 1
			return r.b[start:i]
		case c < 0x20 || c > 0x7e || c == '\\':
			r.decline()
			return nil
		}
	}
	r.decline()
	return nil
}

// Text reads a string.
func (r *StrictReader) Text() string { return string(r.quoted()) }

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
func (r *StrictReader) number() []byte {
	r.ws()
	b, i := r.b, r.i
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		r.decline()
		return nil
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			r.decline()
			return nil
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			r.decline()
			return nil
		}
	}
	start := r.i
	r.i = i
	return b[start:i]
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
// read but not yet built into a Spec.
type Doc struct{ sj specJSON }

// Spec builds and validates the definition, as DecodeSpec does.
func (d *Doc) Spec() (*Spec, error) { return buildSpec(&d.sj) }

// The member names of the DecodeSpec format, in the order of the fields
// they fill (a test holds them to the json tags).
var (
	specKeys    = []string{"name", "slo_ms", "nodes", "edges", "base", "limits"}
	nodeKeys    = []string{"id", "group", "profile"}
	profileKeys = []string{"cpu_work_ms", "parallel_frac", "max_parallel", "io_ms", "footprint_mb", "min_mem_mb", "pressure_k", "noise_std", "input_sensitive"}
	configKeys  = []string{"cpu", "mem_mb"}
	limitsKeys  = []string{"min_cpu", "max_cpu", "cpu_step", "min_mem_mb", "max_mem_mb", "mem_step_mb"}
)

// Spec reads a workflow definition object in the DecodeSpec format. It
// returns nil when the reader declined.
func (r *StrictReader) Spec() *Doc {
	d := new(Doc)
	sj := &d.sj
	var seen uint64
	r.Expect('{')
	for n := 0; r.More('}', n); n++ {
		switch r.Key(&seen, specKeys) {
		case "name":
			sj.Name = r.Text()
		case "slo_ms":
			sj.SLOMS = r.Float()
		case "nodes":
			sj.Nodes = []nodeJSON{}
			r.Expect('[')
			for m := 0; r.More(']', m); m++ {
				sj.Nodes = append(sj.Nodes, r.node())
			}
		case "edges":
			sj.Edges = [][2]string{}
			r.Expect('[')
			for m := 0; r.More(']', m); m++ {
				var e [2]string
				r.Expect('[')
				e[0] = r.Text()
				r.Expect(',')
				e[1] = r.Text()
				r.Expect(']')
				sj.Edges = append(sj.Edges, e)
			}
		case "base":
			sj.Base = r.config()
		case "limits":
			sj.Limits = r.limits()
		}
	}
	if r.bad {
		return nil
	}
	return d
}

func (r *StrictReader) node() nodeJSON {
	var n nodeJSON
	var seen uint64
	r.Expect('{')
	for i := 0; r.More('}', i); i++ {
		switch r.Key(&seen, nodeKeys) {
		case "id":
			n.ID = r.Text()
		case "group":
			n.Group = r.Text()
		case "profile":
			n.Profile = r.profile()
		}
	}
	return n
}

func (r *StrictReader) profile() profileJSON {
	var p profileJSON
	var seen uint64
	r.Expect('{')
	for i := 0; r.More('}', i); i++ {
		switch r.Key(&seen, profileKeys) {
		case "cpu_work_ms":
			p.CPUWorkMS = r.Float()
		case "parallel_frac":
			p.ParallelFrac = r.Float()
		case "max_parallel":
			p.MaxParallel = r.Float()
		case "io_ms":
			p.IOMS = r.Float()
		case "footprint_mb":
			p.FootprintMB = r.Float()
		case "min_mem_mb":
			p.MinMemMB = r.Float()
		case "pressure_k":
			p.PressureK = r.Float()
		case "noise_std":
			p.NoiseStd = r.Float()
		case "input_sensitive":
			p.InputSensitive = r.boolean()
		}
	}
	return p
}

func (r *StrictReader) config() configJSON {
	var c configJSON
	var seen uint64
	r.Expect('{')
	for i := 0; r.More('}', i); i++ {
		switch r.Key(&seen, configKeys) {
		case "cpu":
			c.CPU = r.Float()
		case "mem_mb":
			c.MemMB = r.Float()
		}
	}
	return c
}

func (r *StrictReader) limits() *limitsJSON {
	l := new(limitsJSON)
	var seen uint64
	r.Expect('{')
	for i := 0; r.More('}', i); i++ {
		switch r.Key(&seen, limitsKeys) {
		case "min_cpu":
			l.MinCPU = r.Float()
		case "max_cpu":
			l.MaxCPU = r.Float()
		case "cpu_step":
			l.CPUStep = r.Float()
		case "min_mem_mb":
			l.MinMemMB = r.Float()
		case "max_mem_mb":
			l.MaxMemMB = r.Float()
		case "mem_step_mb":
			l.MemStepMB = r.Float()
		}
	}
	return l
}
