// Package resources models decoupled CPU/memory configurations for
// serverless functions: the per-function Config, the admissible Limits grid
// (the paper discretizes memory in 64 MB increments from 128 to 10240 MB and
// vCPU from 0.1 to 10), coupled projections used by memory-centric baselines,
// and whole-workflow Assignments.
package resources

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Config is a decoupled resource configuration for one serverless function.
type Config struct {
	CPU   float64 // vCPU cores (fractional allowed, e.g. 0.5)
	MemMB float64 // memory in MB
}

// String renders the configuration as "2.0vCPU/1024MB".
func (c Config) String() string {
	return fmt.Sprintf("%.1fvCPU/%.0fMB", c.CPU, c.MemMB)
}

// IsZero reports whether c is the zero configuration.
func (c Config) IsZero() bool { return c.CPU == 0 && c.MemMB == 0 }

// Valid reports whether both dimensions are strictly positive.
func (c Config) Valid() bool { return c.CPU > 0 && c.MemMB > 0 }

// ResourceType identifies one of the two decoupled resource dimensions.
type ResourceType int

const (
	// CPU is the vCPU dimension.
	CPU ResourceType = iota
	// Memory is the memory dimension.
	Memory
)

// String returns "cpu" or "mem".
func (t ResourceType) String() string {
	switch t {
	case CPU:
		return "cpu"
	case Memory:
		return "mem"
	default:
		return fmt.Sprintf("ResourceType(%d)", int(t))
	}
}

// Limits describes the admissible configuration grid for one dimension pair.
type Limits struct {
	MinCPU, MaxCPU, CPUStep       float64
	MinMemMB, MaxMemMB, MemStepMB float64
}

// DefaultLimits returns the grid the paper uses for the decoupled search
// space: memory 128..10240 MB in 64 MB increments, vCPU 0.1..10 in 0.1 steps.
func DefaultLimits() Limits {
	return Limits{
		MinCPU: 0.1, MaxCPU: 10, CPUStep: 0.1,
		MinMemMB: 128, MaxMemMB: 10240, MemStepMB: 64,
	}
}

// Validate reports whether the limits describe a non-empty grid.
func (l Limits) Validate() error {
	if l.MinCPU <= 0 || l.MaxCPU < l.MinCPU || l.CPUStep <= 0 {
		return fmt.Errorf("resources: invalid CPU limits %+v", l)
	}
	if l.MinMemMB <= 0 || l.MaxMemMB < l.MinMemMB || l.MemStepMB <= 0 {
		return fmt.Errorf("resources: invalid memory limits %+v", l)
	}
	return nil
}

// Clamp forces cfg into the closed box [MinCPU,MaxCPU]×[MinMemMB,MaxMemMB].
func (l Limits) Clamp(cfg Config) Config {
	return Config{
		CPU:   clamp(cfg.CPU, l.MinCPU, l.MaxCPU),
		MemMB: clamp(cfg.MemMB, l.MinMemMB, l.MaxMemMB),
	}
}

// Contains reports whether cfg lies inside the limit box (grid-snapping is
// not required).
func (l Limits) Contains(cfg Config) bool {
	return cfg.CPU >= l.MinCPU-1e-9 && cfg.CPU <= l.MaxCPU+1e-9 &&
		cfg.MemMB >= l.MinMemMB-1e-9 && cfg.MemMB <= l.MaxMemMB+1e-9
}

// Snap rounds cfg to the nearest grid point and clamps it to the box.
func (l Limits) Snap(cfg Config) Config {
	c := l.Clamp(cfg)
	c.CPU = l.MinCPU + math.Round((c.CPU-l.MinCPU)/l.CPUStep)*l.CPUStep
	c.MemMB = l.MinMemMB + math.Round((c.MemMB-l.MinMemMB)/l.MemStepMB)*l.MemStepMB
	// Rounding can push a value one step past the upper bound.
	return l.Clamp(c)
}

// Normalize maps cfg into [0,1]² relative to the limit box (used by the
// Bayesian-optimization kernel).
func (l Limits) Normalize(cfg Config) (cpu01, mem01 float64) {
	cpu01 = (cfg.CPU - l.MinCPU) / (l.MaxCPU - l.MinCPU)
	mem01 = (cfg.MemMB - l.MinMemMB) / (l.MaxMemMB - l.MinMemMB)
	return clamp(cpu01, 0, 1), clamp(mem01, 0, 1)
}

// Denormalize is the inverse of Normalize (before grid snapping).
func (l Limits) Denormalize(cpu01, mem01 float64) Config {
	return Config{
		CPU:   l.MinCPU + clamp(cpu01, 0, 1)*(l.MaxCPU-l.MinCPU),
		MemMB: l.MinMemMB + clamp(mem01, 0, 1)*(l.MaxMemMB-l.MinMemMB),
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// CoupledMemPerCPU is the MAFF coupling ratio: one vCPU core per 1024 MB.
const CoupledMemPerCPU = 1024.0

// Coupled returns the coupled configuration for a given memory size,
// allocating vCPU proportionally at 1 core / 1024 MB (the MAFF scheme).
func Coupled(memMB float64) Config {
	return Config{CPU: memMB / CoupledMemPerCPU, MemMB: memMB}
}

// Assignment maps function (node) IDs to their resource configurations.
type Assignment map[string]Config

// Clone returns a deep copy of a.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Equal reports whether two assignments configure the same functions with
// exactly equal values.
func (a Assignment) Equal(b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || v != w {
			return false
		}
	}
	return true
}

// Keys returns the function IDs in sorted order.
func (a Assignment) Keys() []string {
	ks := make([]string, 0, len(a))
	for k := range a {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Uniform builds an assignment giving every listed function the same config.
func Uniform(ids []string, cfg Config) Assignment {
	out := make(Assignment, len(ids))
	for _, id := range ids {
		out[id] = cfg
	}
	return out
}

// String renders the assignment deterministically, sorted by function ID.
func (a Assignment) String() string {
	var b strings.Builder
	for i, k := range a.Keys() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", k, a[k])
	}
	return b.String()
}
