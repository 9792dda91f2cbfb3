package workflow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"aarc/internal/dag"
	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

// LoadSpec reads a JSON workflow definition from a file (see DecodeSpec for
// the format).
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeSpec(f)
}

// specJSON is the on-disk workflow definition format accepted by
// DecodeSpec: the shape a developer submits to the platform (step ❶ of
// Fig. 4), with profile metadata standing in for real function code.
//
//	{
//	  "name": "my-workflow",
//	  "slo_ms": 120000,
//	  "nodes": [
//	    {"id": "start", "profile": {...}},
//	    {"id": "work_1", "group": "work", "profile": {...}}
//	  ],
//	  "edges": [["start", "work_1"]],
//	  "base": {"cpu": 4, "mem_mb": 4096},
//	  "limits": {...}          // optional, defaults to the paper grid
//	}
type specJSON struct {
	Name   string      `json:"name"`
	SLOMS  float64     `json:"slo_ms"`
	Nodes  []nodeJSON  `json:"nodes"`
	Edges  [][2]string `json:"edges"`
	Base   configJSON  `json:"base"`
	Limits *limitsJSON `json:"limits,omitempty"`
}

type nodeJSON struct {
	ID      string      `json:"id"`
	Group   string      `json:"group,omitempty"`
	Profile profileJSON `json:"profile"`
}

type profileJSON struct {
	CPUWorkMS      float64 `json:"cpu_work_ms"`
	ParallelFrac   float64 `json:"parallel_frac"`
	MaxParallel    float64 `json:"max_parallel,omitempty"`
	IOMS           float64 `json:"io_ms,omitempty"`
	FootprintMB    float64 `json:"footprint_mb"`
	MinMemMB       float64 `json:"min_mem_mb"`
	PressureK      float64 `json:"pressure_k,omitempty"`
	NoiseStd       float64 `json:"noise_std,omitempty"`
	InputSensitive bool    `json:"input_sensitive,omitempty"`
}

type configJSON struct {
	CPU   float64 `json:"cpu"`
	MemMB float64 `json:"mem_mb"`
}

type limitsJSON struct {
	MinCPU    float64 `json:"min_cpu"`
	MaxCPU    float64 `json:"max_cpu"`
	CPUStep   float64 `json:"cpu_step"`
	MinMemMB  float64 `json:"min_mem_mb"`
	MaxMemMB  float64 `json:"max_mem_mb"`
	MemStepMB float64 `json:"mem_step_mb"`
}

func (l limitsJSON) limits() resources.Limits {
	return resources.Limits{
		MinCPU: l.MinCPU, MaxCPU: l.MaxCPU, CPUStep: l.CPUStep,
		MinMemMB: l.MinMemMB, MaxMemMB: l.MaxMemMB, MemStepMB: l.MemStepMB,
	}
}

// DecodeSpec reads a JSON workflow definition whole and validates it. A
// StrictReader reads the bytes in one pass; when it declines, encoding/json
// decodes the same bytes as it always has (its first value, unknown members
// refused), so every input decodes to the same Spec, or fails with the same
// error, either way.
func DecodeSpec(r io.Reader) (*Spec, error) {
	var buf bytes.Buffer
	if lr, ok := r.(interface{ Len() int }); ok { // bytes and strings readers: one allocation
		buf.Grow(lr.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("workflow: decoding spec: %w", err)
	}
	if d, ok := strictDoc(buf.Bytes()); ok {
		return d.Spec()
	}
	sj, err := jsonDoc(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("workflow: decoding spec: %w", err)
	}
	return buildSpec(sj)
}

// strictDoc reads b with a StrictReader; ok is false when it declined.
func strictDoc(b []byte) (d *Doc, ok bool) {
	sr := NewStrictReader(b)
	d = sr.Spec()
	return d, sr.End()
}

// jsonDoc decodes b with encoding/json: its first value, unknown members
// refused.
func jsonDoc(b []byte) (*specJSON, error) {
	sj := new(specJSON)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return sj, dec.Decode(sj)
}

// buildSpec builds a definition into a Spec — graph, profiles, groups, the
// uniform base and the limits — and validates it.
func buildSpec(sj *specJSON) (*Spec, error) {
	lim := resources.DefaultLimits()
	if sj.Limits != nil {
		lim = sj.Limits.limits()
	}
	uniform := resources.Config{CPU: sj.Base.CPU, MemMB: sj.Base.MemMB}
	return newSpec(sj.Name, sj.SLOMS, sj.Nodes, sj.Edges, lim, func(spec *Spec) resources.Assignment {
		return resources.Uniform(spec.FunctionGroups(), uniform)
	})
}

// newSpec builds nodes and edges into a Spec's graph, profiles and groups,
// sets its limits and the base assignment that base returns for it (base
// runs once the groups are known), and validates it. It is the one builder
// behind both wire formats: DecodeSpec's uniform base and the canonical
// form's per-group base.
func newSpec(name string, sloMS float64, nodes []nodeJSON, edges [][2]string, lim resources.Limits, base func(*Spec) resources.Assignment) (*Spec, error) {
	g := dag.New()
	profiles := make(map[string]perfmodel.Profile, len(nodes))
	groups := make(map[string]string)
	for _, n := range nodes {
		if err := g.AddNode(n.ID); err != nil {
			return nil, err
		}
		profiles[n.ID] = perfmodel.Profile{
			Name:           n.ID,
			CPUWorkMS:      n.Profile.CPUWorkMS,
			ParallelFrac:   n.Profile.ParallelFrac,
			MaxParallel:    n.Profile.MaxParallel,
			IOMS:           n.Profile.IOMS,
			FootprintMB:    n.Profile.FootprintMB,
			MinMemMB:       n.Profile.MinMemMB,
			PressureK:      n.Profile.PressureK,
			NoiseStd:       n.Profile.NoiseStd,
			InputSensitive: n.Profile.InputSensitive,
		}
		if n.Group != "" {
			groups[n.ID] = n.Group
		}
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	spec := &Spec{
		Name:     name,
		G:        g,
		Profiles: profiles,
		Groups:   groups,
		SLOMS:    sloMS,
		Limits:   lim,
	}
	spec.Base = base(spec)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// EncodeSpec writes the spec in the DecodeSpec JSON format. The uniform base
// configuration is taken from the first group (EncodeSpec is intended for
// specs built with a uniform base, as DecodeSpec produces).
func EncodeSpec(w io.Writer, spec *Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	sj := specJSON{
		Name:  spec.Name,
		SLOMS: spec.SLOMS,
	}
	for _, id := range spec.G.Nodes() {
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
		if grp := spec.Groups[id]; grp != "" && grp != id {
			n.Group = grp
		}
		sj.Nodes = append(sj.Nodes, n)
	}
	for _, from := range spec.G.Nodes() {
		for _, to := range spec.G.Succ(from) {
			sj.Edges = append(sj.Edges, [2]string{from, to})
		}
	}
	if len(spec.FunctionGroups()) > 0 {
		b := spec.Base[spec.FunctionGroups()[0]]
		sj.Base = configJSON{CPU: b.CPU, MemMB: b.MemMB}
	}
	lim := spec.Limits
	sj.Limits = &limitsJSON{
		MinCPU: lim.MinCPU, MaxCPU: lim.MaxCPU, CPUStep: lim.CPUStep,
		MinMemMB: lim.MinMemMB, MaxMemMB: lim.MaxMemMB, MemStepMB: lim.MemStepMB,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sj)
}
