package workflow

import (
	"encoding/json"
	"sort"
)

// SampleSpecJSON is the hand-written definition TestDecodeSpec reads.
const SampleSpecJSON = sampleSpecJSON

// StrictDoc and EncodingJSONDoc are DecodeSpec's two ways to read a
// definition: the strict reader (ok false when it declined) and the
// encoding/json fallback it is checked against.
var (
	StrictDoc       = strictDoc
	EncodingJSONDoc = jsonDoc
)

// MarshalCanonical is the canonical encoding as json.Marshal writes it from
// a built canonicalSpec: the oracle CanonicalJSON must equal byte for byte.
func MarshalCanonical(spec *Spec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cs := canonicalSpec{
		Name:  spec.Name,
		SLOMS: spec.SLOMS,
		Base:  make(map[string]configJSON, len(spec.Base)),
	}
	ids := append([]string(nil), spec.G.Nodes()...)
	sort.Strings(ids)
	for _, id := range ids {
		p := spec.Profiles[id]
		n := nodeJSON{
			ID: id,
			Profile: profileJSON{
				CPUWorkMS:      p.CPUWorkMS,
				ParallelFrac:   p.ParallelFrac,
				MaxParallel:    p.MaxParallel,
				IOMS:           p.IOMS,
				FootprintMB:    p.FootprintMB,
				MinMemMB:       p.MinMemMB,
				PressureK:      p.PressureK,
				NoiseStd:       p.NoiseStd,
				InputSensitive: p.InputSensitive,
			},
		}
		if grp := spec.GroupOf(id); grp != id {
			n.Group = grp
		}
		cs.Nodes = append(cs.Nodes, n)
	}
	for _, from := range ids {
		for _, to := range spec.G.Succ(from) {
			cs.Edges = append(cs.Edges, [2]string{from, to})
		}
	}
	sort.Slice(cs.Edges, func(i, j int) bool {
		if cs.Edges[i][0] != cs.Edges[j][0] {
			return cs.Edges[i][0] < cs.Edges[j][0]
		}
		return cs.Edges[i][1] < cs.Edges[j][1]
	})
	for g, cfg := range spec.Base {
		cs.Base[g] = configJSON{CPU: cfg.CPU, MemMB: cfg.MemMB}
	}
	lim := spec.Limits
	cs.Limits = limitsJSON{
		MinCPU: lim.MinCPU, MaxCPU: lim.MaxCPU, CPUStep: lim.CPUStep,
		MinMemMB: lim.MinMemMB, MaxMemMB: lim.MaxMemMB, MemStepMB: lim.MemStepMB,
	}
	return json.Marshal(cs)
}
