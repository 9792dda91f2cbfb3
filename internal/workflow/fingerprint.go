package workflow

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
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
// so escaping stays encoding/json's.
func CanonicalJSON(spec *Spec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ids := spec.G.Nodes()
	sort.Strings(ids)
	// Generated and paper specs take 230–290 bytes a node.
	w := canonicalWriter{b: make([]byte, 0, 256+320*len(ids))}
	w.raw(`{"name":`)
	w.str(spec.Name)
	w.raw(`,"slo_ms":`)
	w.float(spec.SLOMS)
	w.raw(`,"nodes":`)
	if len(ids) == 0 {
		w.raw("null")
	}
	for i, id := range ids {
		w.sep(i)
		p := spec.Profiles[id]
		w.raw(`{"id":`)
		w.str(id)
		if grp := spec.GroupOf(id); grp != id {
			w.raw(`,"group":`)
			w.str(grp)
		}
		w.raw(`,"profile":{"cpu_work_ms":`)
		w.float(p.CPUWorkMS)
		w.raw(`,"parallel_frac":`)
		w.float(p.ParallelFrac)
		w.omitEmpty(`,"max_parallel":`, p.MaxParallel)
		w.omitEmpty(`,"io_ms":`, p.IOMS)
		w.raw(`,"footprint_mb":`)
		w.float(p.FootprintMB)
		w.raw(`,"min_mem_mb":`)
		w.float(p.MinMemMB)
		w.omitEmpty(`,"pressure_k":`, p.PressureK)
		w.omitEmpty(`,"noise_std":`, p.NoiseStd)
		if p.InputSensitive {
			w.raw(`,"input_sensitive":true`)
		}
		w.raw("}}")
	}
	if len(ids) > 0 {
		w.raw("]")
	}
	w.raw(`,"edges":`)
	edges := 0
	for _, from := range ids {
		succ := spec.G.Succ(from)
		sort.Strings(succ)
		for _, to := range succ {
			w.sep(edges)
			w.raw("[")
			w.str(from)
			w.raw(",")
			w.str(to)
			w.raw("]")
			edges++
		}
	}
	if edges == 0 {
		w.raw("null")
	} else {
		w.raw("]")
	}
	groups := make([]string, 0, len(spec.Base))
	for g := range spec.Base {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	w.raw(`,"base":{`)
	for i, g := range groups {
		if i > 0 {
			w.raw(",")
		}
		cfg := spec.Base[g]
		w.str(g)
		w.raw(`:{"cpu":`)
		w.float(cfg.CPU)
		w.raw(`,"mem_mb":`)
		w.float(cfg.MemMB)
		w.raw("}")
	}
	lim := spec.Limits
	w.raw(`},"limits":{"min_cpu":`)
	w.float(lim.MinCPU)
	w.raw(`,"max_cpu":`)
	w.float(lim.MaxCPU)
	w.raw(`,"cpu_step":`)
	w.float(lim.CPUStep)
	w.raw(`,"min_mem_mb":`)
	w.float(lim.MinMemMB)
	w.raw(`,"max_mem_mb":`)
	w.float(lim.MaxMemMB)
	w.raw(`,"mem_step_mb":`)
	w.float(lim.MemStepMB)
	w.raw("}}")
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// canonicalWriter appends JSON tokens as encoding/json writes them, keeping
// the first error.
type canonicalWriter struct {
	b   []byte
	err error
}

func (w *canonicalWriter) raw(s string) { w.b = append(w.b, s...) }

// sep opens an array before its first element and separates the others.
func (w *canonicalWriter) sep(i int) {
	if i == 0 {
		w.raw("[")
	} else {
		w.raw(",")
	}
}

// str writes s as a JSON string. Printable ASCII other than the bytes
// encoding/json escapes ('"', '\\', and '<', '>', '&' for HTML) is written
// as is; anything else is left to json.Marshal.
func (w *canonicalWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always marshals
			w.b = append(w.b, q...)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// float writes f as encoding/json does: the shortest representation that
// round-trips, in exponent form below 1e-6 and from 1e21, with a one-digit
// negative exponent unpadded. NaN and the infinities fail with
// json.Marshal's error.
func (w *canonicalWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if w.err == nil {
			_, w.err = json.Marshal(f)
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && n >= 4 && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// omitEmpty writes an omitempty float member: nothing when f is zero.
func (w *canonicalWriter) omitEmpty(member string, f float64) {
	if f != 0 {
		w.raw(member)
		w.float(f)
	}
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
