package workflow

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"aarc/internal/resources"
)

// The canonical encoding reuses the on-disk JSON vocabulary (specJSON and
// friends) but fixes an order the DAG does not: nodes sorted by ID, edges
// sorted lexicographically, and the full per-group base assignment instead
// of the uniform shorthand. Two Specs that describe the same workflow —
// regardless of construction order — canonicalize to the same bytes, and
// two that differ in anything result-affecting (profile, group, edge, SLO,
// base, limits) do not. CanonicalJSON writes json.Marshal's encoding of
// this struct without building it; DecodeCanonicalSpec decodes into it.
type canonicalSpec struct {
	Name   string                `json:"name"`
	SLOMS  float64               `json:"slo_ms"`
	Nodes  []nodeJSON            `json:"nodes"`
	Edges  [][2]string           `json:"edges"`
	Base   map[string]configJSON `json:"base"`
	Limits limitsJSON            `json:"limits"`
}

// CanonicalJSON returns the deterministic JSON encoding of a spec: the
// DecodeSpec vocabulary with nodes and edges sorted and the base assignment
// spelled out per group. It is the preimage of Fingerprint; callers that
// combine a spec with other cache-key material (search options, runner
// seeds) hash over these bytes.
//
// The bytes are json.Marshal(canonicalSpec), written directly: the same
// members in the same order, zero omitempty members left out, floats in
// encoding/json's format, base groups sorted, and the same error for a NaN
// or an infinity. A string that needs escaping goes through json.Marshal,
// so escaping stays encoding/json's. The layout is the canonicalForm
// writer's, which writes a Doc's canonical bytes too.
func CanonicalJSON(spec *Spec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	f, err := specForm(spec)
	if err != nil {
		return nil, err
	}
	// The layout adds at most ~190 bytes a node to the values, and each
	// edge repeats two ids.
	return f.appendJSON(make([]byte, 0, 2*len(f.b)+192*len(f.nodes)+64*len(f.groups)+256)), nil
}

// CanonicalJSON writes the definition's canonical bytes as it was sent,
// without building it and without parsing or formatting a number: the
// canonicalForm writer's layout over the document's own tokens, with the
// normalizations buildSpec and CanonicalJSON apply (a member left out is
// 0, a zero omitempty member and a group equal to its node's id are left
// out, the base is spelled out per group, absent limits are the defaults).
//
// A document that builds, and spells every number and string as
// encoding/json writes it, writes CanonicalJSON of the spec it builds.
// Any other document writes bytes that are no valid spec's canonical
// JSON, so a store of fingerprints of validated specs never holds a key
// hashed over them: bytes equal to a valid spec's canonical JSON are that
// spec's, and the document builds to it.
func (d *Doc) CanonicalJSON() []byte {
	f := d.form()
	return f.appendJSON(make([]byte, 0, d.end-d.start+64*len(f.groups)+len(defaultLimits)+256))
}

// canonicalForm is a spec laid out as CanonicalJSON writes it: nodes in
// id order, edges sorted, the base spelled out per group in group order,
// and every value a span of b holding its JSON spelling (a string's
// content between its quotes, a number's token). A Spec's form holds its
// values as encoding/json formats them (specForm); a Doc's holds the
// tokens it was sent (Doc.form). appendJSON lays out both.
type canonicalForm struct {
	b         []byte
	name, slo span
	nodes     []wireNode
	order     []int32     // the nodes' indices sorted by id; nil when nodes is sorted
	edges     [][2]span   // sorted by from, then to
	groups    []baseGroup // sorted, distinct
	limits    *[6]span    // in limitsKeys order; nil for DefaultLimits
}

// baseGroup is one group's base configuration in a canonicalForm.
type baseGroup struct{ name, cpu, mem span }

// appendJSON appends the form's canonical bytes to dst. An empty number
// span is 0, except that an omitempty member whose span is empty or "0"
// is left out; a node's group is written unless it is empty or the
// node's id.
func (f *canonicalForm) appendJSON(dst []byte) []byte {
	w := formWriter{b: dst, src: f.b}
	w.raw(`{"name":`)
	w.str(f.name)
	w.raw(`,"slo_ms":`)
	w.num(f.slo)
	w.raw(`,"nodes":`)
	if len(f.nodes) == 0 {
		w.raw("null")
	}
	for i := range f.nodes {
		n := &f.nodes[i]
		if f.order != nil {
			n = &f.nodes[f.order[i]]
		}
		w.sep(i)
		w.raw(`{"id":`)
		w.str(n.id)
		if grp := n.group.in(f.b); len(grp) > 0 && !bytes.Equal(grp, n.id.in(f.b)) {
			w.raw(`,"group":`)
			w.str(n.group)
		}
		p := &n.profile
		w.raw(`,"profile":{"cpu_work_ms":`)
		w.num(p[0])
		w.raw(`,"parallel_frac":`)
		w.num(p[1])
		w.omitEmpty(`,"max_parallel":`, p[2])
		w.omitEmpty(`,"io_ms":`, p[3])
		w.raw(`,"footprint_mb":`)
		w.num(p[4])
		w.raw(`,"min_mem_mb":`)
		w.num(p[5])
		w.omitEmpty(`,"pressure_k":`, p[6])
		w.omitEmpty(`,"noise_std":`, p[7])
		if n.sensitive {
			w.raw(`,"input_sensitive":true`)
		}
		w.raw("}}")
	}
	if len(f.nodes) > 0 {
		w.raw("]")
	}
	w.raw(`,"edges":`)
	if len(f.edges) == 0 {
		w.raw("null")
	}
	for i, e := range f.edges {
		w.sep(i)
		w.raw("[")
		w.str(e[0])
		w.raw(",")
		w.str(e[1])
		w.raw("]")
	}
	if len(f.edges) > 0 {
		w.raw("]")
	}
	w.raw(`,"base":{`)
	for i, g := range f.groups {
		if i > 0 {
			w.raw(",")
		}
		w.str(g.name)
		w.raw(`:{"cpu":`)
		w.num(g.cpu)
		w.raw(`,"mem_mb":`)
		w.num(g.mem)
		w.raw("}")
	}
	w.raw(`},"limits":`)
	if f.limits == nil {
		w.b = append(w.b, defaultLimits...)
	} else {
		w.limits(f.limits)
	}
	w.raw("}")
	return w.b
}

// defaultLimits is the limits object a form without limits is written
// with: DefaultLimits formatted as specForm formats a Spec's, in the
// writer's layout.
var defaultLimits = func() []byte {
	var fm formatter
	l := fm.limits(resources.DefaultLimits())
	w := formWriter{src: fm.b}
	w.limits(l)
	return w.b
}()

// formWriter appends a canonicalForm's layout, copying each value's
// bytes from src.
type formWriter struct{ b, src []byte }

func (w *formWriter) raw(s string) { w.b = append(w.b, s...) }

// sep opens an array before its first element and separates the others.
func (w *formWriter) sep(i int) {
	if i == 0 {
		w.raw("[")
	} else {
		w.raw(",")
	}
}

func (w *formWriter) str(s span) {
	w.b = append(w.b, '"')
	w.b = append(w.b, s.in(w.src)...)
	w.b = append(w.b, '"')
}

// num writes a number member's value: its token, or 0 when it has none.
func (w *formWriter) num(s span) {
	if s.empty() {
		w.b = append(w.b, '0')
		return
	}
	w.b = append(w.b, s.in(w.src)...)
}

// omitEmpty writes an omitempty number member, unless its value is
// absent or 0.
func (w *formWriter) omitEmpty(member string, s span) {
	if tok := s.in(w.src); len(tok) > 0 && string(tok) != "0" {
		w.raw(member)
		w.num(s)
	}
}

func (w *formWriter) limits(l *[6]span) {
	w.raw(`{"min_cpu":`)
	w.num(l[0])
	w.raw(`,"max_cpu":`)
	w.num(l[1])
	w.raw(`,"cpu_step":`)
	w.num(l[2])
	w.raw(`,"min_mem_mb":`)
	w.num(l[3])
	w.raw(`,"max_mem_mb":`)
	w.num(l[4])
	w.raw(`,"mem_step_mb":`)
	w.num(l[5])
	w.raw("}")
}

// specForm lays a valid spec out for appendJSON, formatting its values as
// encoding/json does. A NaN or an infinity fails with json.Marshal's
// error, the first in the order CanonicalJSON writes the values.
func specForm(spec *Spec) (canonicalForm, error) {
	ids := spec.G.Nodes()
	sort.Strings(ids)
	// Generated and paper specs format 60-100 bytes of values a node.
	fm := formatter{b: make([]byte, 0, 128+128*len(ids))}
	f := canonicalForm{name: fm.str(spec.Name), slo: fm.float(spec.SLOMS), nodes: make([]wireNode, len(ids))}
	for i, id := range ids {
		n, p := &f.nodes[i], spec.Profiles[id]
		n.id = fm.str(id)
		if grp := spec.GroupOf(id); grp != id {
			n.group = fm.str(grp)
		}
		n.profile = [8]span{
			fm.float(p.CPUWorkMS), fm.float(p.ParallelFrac), fm.nonzero(p.MaxParallel), fm.nonzero(p.IOMS),
			fm.float(p.FootprintMB), fm.float(p.MinMemMB), fm.nonzero(p.PressureK), fm.nonzero(p.NoiseStd),
		}
		n.sensitive = p.InputSensitive
	}
	f.edges = make([][2]span, 0, spec.G.NumEdges())
	for i, from := range ids {
		succ := spec.G.Succ(from)
		sort.Strings(succ)
		for _, to := range succ {
			f.edges = append(f.edges, [2]span{f.nodes[i].id, f.nodes[sort.SearchStrings(ids, to)].id})
		}
	}
	groups := make([]string, 0, len(spec.Base))
	for g := range spec.Base {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	f.groups = make([]baseGroup, len(groups))
	for i, g := range groups {
		cfg := spec.Base[g]
		f.groups[i] = baseGroup{fm.str(g), fm.float(cfg.CPU), fm.float(cfg.MemMB)}
	}
	f.limits = fm.limits(spec.Limits)
	f.b = fm.b
	return f, fm.err
}

// form lays the document out for appendJSON over its own bytes: nodes and
// edges sorted by their bytes (an order and a copy, so the document keeps
// the order it builds in) and the base spelled out for each distinct
// group.
func (d *Doc) form() canonicalForm {
	b := d.b
	f := canonicalForm{b: b, name: d.name, slo: d.slo, nodes: d.nodes, order: make([]int32, len(d.nodes)), edges: slices.Clone(d.edges)}
	compare := func(x, y span) int { return bytes.Compare(x.in(b), y.in(b)) }
	groups := make([]span, len(d.nodes))
	for i, n := range d.nodes {
		f.order[i] = int32(i)
		groups[i] = n.id
		if !n.group.empty() {
			groups[i] = n.group
		}
	}
	slices.SortFunc(f.order, func(x, y int32) int { return compare(d.nodes[x].id, d.nodes[y].id) })
	slices.SortFunc(f.edges, func(x, y [2]span) int { return cmp.Or(compare(x[0], y[0]), compare(x[1], y[1])) })
	slices.SortFunc(groups, compare)
	groups = slices.CompactFunc(groups, func(x, y span) bool { return compare(x, y) == 0 })
	f.groups = make([]baseGroup, len(groups))
	for i, g := range groups {
		f.groups[i] = baseGroup{g, d.base[0], d.base[1]}
	}
	if d.hasLimits {
		f.limits = &d.limits
	}
	return f
}

// formatter appends values as encoding/json spells them, returning the
// span each one fills, and keeps the first error.
type formatter struct {
	b   []byte
	err error
}

func (fm *formatter) at(start int) span { return span{int32(start), int32(len(fm.b))} }

// str writes s's content as a JSON string's. Printable ASCII other than
// the bytes encoding/json escapes ('"', '\\', and '<', '>', '&' for HTML)
// is written as is; anything else is left to json.Marshal.
func (fm *formatter) str(s string) span {
	start := len(fm.b)
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always marshals
			fm.b = append(fm.b, q[1:len(q)-1]...)
			return fm.at(start)
		}
	}
	fm.b = append(fm.b, s...)
	return fm.at(start)
}

// float writes f as encoding/json does: the shortest representation that
// round-trips, in exponent form below 1e-6 and from 1e21, with a one-digit
// negative exponent unpadded. NaN and the infinities fail with
// json.Marshal's error.
func (fm *formatter) float(f float64) span {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if fm.err == nil {
			_, fm.err = json.Marshal(f)
		}
		return span{}
	}
	start := len(fm.b)
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	fm.b = strconv.AppendFloat(fm.b, f, format, -1, 64)
	if n := len(fm.b); format == 'e' && n >= 4 && fm.b[n-4] == 'e' && fm.b[n-3] == '-' && fm.b[n-2] == '0' {
		fm.b[n-2] = fm.b[n-1]
		fm.b = fm.b[:n-1]
	}
	return fm.at(start)
}

// nonzero is float for an omitempty member: no value when f is zero.
func (fm *formatter) nonzero(f float64) span {
	if f == 0 {
		return span{}
	}
	return fm.float(f)
}

func (fm *formatter) limits(l resources.Limits) *[6]span {
	return &[6]span{fm.float(l.MinCPU), fm.float(l.MaxCPU), fm.float(l.CPUStep), fm.float(l.MinMemMB), fm.float(l.MaxMemMB), fm.float(l.MemStepMB)}
}

// DecodeCanonicalSpec parses CanonicalJSON output back into a validated
// Spec. Unlike DecodeSpec's submission format (uniform base config), the
// canonical form spells the base assignment per group, so the round trip
// CanonicalJSON -> DecodeCanonicalSpec -> CanonicalJSON is byte-exact.
// The serving layer persists canonical spec bytes next to each cached
// recommendation and uses this to rebuild evaluation runners after a
// restart.
func DecodeCanonicalSpec(b []byte) (*Spec, error) {
	var cs canonicalSpec
	if err := json.Unmarshal(b, &cs); err != nil {
		return nil, fmt.Errorf("workflow: decoding canonical spec: %w", err)
	}
	return newSpec(cs.Name, cs.SLOMS, cs.Nodes, cs.Edges, cs.Limits.limits(), func(*Spec) resources.Assignment {
		base := make(resources.Assignment, len(cs.Base))
		for grp, c := range cs.Base {
			base[grp] = resources.Config{CPU: c.CPU, MemMB: c.MemMB}
		}
		return base
	})
}

// Fingerprint returns "sha256:<hex>" over the spec's canonical JSON. It is
// the content-addressed identity of a workflow definition: the serving
// layer keys its recommendation cache on it (combined with the search
// options' own canonical encoding).
func Fingerprint(spec *Spec) (string, error) {
	b, err := CanonicalJSON(spec)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("sha256:%x", sum), nil
}
