// Package perfmodel provides analytic performance profiles for simulated
// serverless functions. A Profile maps a decoupled resource configuration
// (vCPU, MB) and an input scale to a runtime, reproducing the physics the
// paper observes on its Docker testbed:
//
//   - Compute scales by Amdahl's law: t_compute(c) = S/min(c,1) + P/min(c, maxPar)
//     with S the serial and P the parallelizable vCPU-milliseconds. Together
//     with the linear price µ0·c + µ1·m this yields an interior cost-optimal
//     core count c* = sqrt(µ1·m·P / (µ0·S)), matching the per-workflow optima
//     of Fig. 2 (≈1 vCPU Chatbot, ≈4 vCPU ML Pipeline, ≈8 vCPU Video).
//   - Runtime is flat in memory above the working-set footprint (Fig. 2a/2b:
//     "runtime remains unchanged despite memory variations"), degrades
//     smoothly between the OOM floor and the footprint, and the function is
//     OOM-killed below the floor.
//   - Fixed I/O time is unaffected by resources.
//   - Measurements carry small multiplicative Gaussian noise, giving the
//     ± deviations of Table II.
package perfmodel

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"aarc/internal/resources"
)

// OOMError reports that a function was killed for exceeding its memory quota.
type OOMError struct {
	Function string
	MemMB    float64 // configured memory
	NeedMB   float64 // minimum viable memory at this input scale
}

// Error implements the error interface.
func (e *OOMError) Error() string {
	return fmt.Sprintf("perfmodel: %s OOM-killed: %.0f MB configured, needs at least %.0f MB",
		e.Function, e.MemMB, e.NeedMB)
}

// Profile is the analytic performance model of one serverless function.
type Profile struct {
	Name string

	// CPUWorkMS is the total compute demand in vCPU-milliseconds at input
	// scale 1 (serial + parallel parts together).
	CPUWorkMS float64
	// ParallelFrac is the Amdahl parallelizable fraction p in [0, 1].
	ParallelFrac float64
	// MaxParallel caps the useful core count; extra cores are wasted.
	// Zero means "no cap".
	MaxParallel float64
	// IOMS is fixed I/O / network time (ms) insensitive to resources.
	IOMS float64

	// FootprintMB is the working set: above it memory has no runtime
	// effect, below it the pressure penalty applies.
	FootprintMB float64
	// MinMemMB is the OOM floor: configurations strictly below it fail.
	MinMemMB float64
	// PressureK scales the slowdown between MinMemMB and FootprintMB:
	// penalty = 1 + PressureK · (footprint-mem)/footprint.
	PressureK float64

	// NoiseStd is the multiplicative measurement-noise sigma (e.g. 0.02).
	NoiseStd float64

	// InputSensitive marks functions whose work, I/O and memory need grow
	// with the input scale (§IV-D input-aware configuration).
	InputSensitive bool
}

// Validate checks the profile for internal consistency.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return errors.New("perfmodel: profile needs a name")
	case p.CPUWorkMS < 0 || p.IOMS < 0:
		return fmt.Errorf("perfmodel: %s: negative work or io", p.Name)
	case p.ParallelFrac < 0 || p.ParallelFrac > 1:
		return fmt.Errorf("perfmodel: %s: parallel fraction %v outside [0,1]", p.Name, p.ParallelFrac)
	case p.MaxParallel < 0:
		return fmt.Errorf("perfmodel: %s: negative MaxParallel", p.Name)
	case p.FootprintMB < 0 || p.MinMemMB < 0:
		return fmt.Errorf("perfmodel: %s: negative memory thresholds", p.Name)
	case p.MinMemMB > p.FootprintMB && p.FootprintMB > 0:
		return fmt.Errorf("perfmodel: %s: OOM floor %v above footprint %v", p.Name, p.MinMemMB, p.FootprintMB)
	case p.PressureK < 0:
		return fmt.Errorf("perfmodel: %s: negative PressureK", p.Name)
	case p.NoiseStd < 0 || p.NoiseStd > 0.5:
		return fmt.Errorf("perfmodel: %s: noise sigma %v outside [0,0.5]", p.Name, p.NoiseStd)
	}
	return nil
}

// scaled returns the effective work, io, footprint and OOM floor at the
// given input scale.
func (p *Profile) scaled(scale float64) (work, io, footprint, minMem float64) {
	work, io, footprint, minMem = p.CPUWorkMS, p.IOMS, p.FootprintMB, p.MinMemMB
	if p.InputSensitive && scale > 0 {
		work *= scale
		io *= scale
		footprint *= scale
		minMem *= scale
	}
	return work, io, footprint, minMem
}

// MinViableMemMB returns the OOM floor at the given input scale.
func (p *Profile) MinViableMemMB(scale float64) float64 {
	_, _, _, minMem := p.scaled(scale)
	return minMem
}

// MeanRuntime returns the noise-free runtime (ms) of the function at cfg and
// input scale. It returns an *OOMError when memory is below the floor.
func (p *Profile) MeanRuntime(cfg resources.Config, scale float64) (float64, error) {
	t, oom, err := p.mean(cfg, scale)
	if oom {
		return 0, &OOMError{Function: p.Name, MemMB: cfg.MemMB, NeedMB: p.MinViableMemMB(scale)}
	}
	return t, err
}

// mean is MeanRuntime with an OOM kill reported as oom, not as an error.
func (p *Profile) mean(cfg resources.Config, scale float64) (t float64, oom bool, err error) {
	if cfg.CPU <= 0 {
		return 0, false, fmt.Errorf("perfmodel: %s: non-positive CPU %v", p.Name, cfg.CPU)
	}
	work, io, footprint, minMem := p.scaled(scale)
	if cfg.MemMB < minMem {
		return 0, true, nil
	}

	serialWork := (1 - p.ParallelFrac) * work
	parallelWork := p.ParallelFrac * work

	// Sub-core allocations slow everything down; parallel work additionally
	// saturates at MaxParallel cores.
	serialSpeed := math.Min(cfg.CPU, 1)
	parallelSpeed := cfg.CPU
	if p.MaxParallel > 0 {
		parallelSpeed = math.Min(parallelSpeed, p.MaxParallel)
	}
	compute := serialWork/serialSpeed + parallelWork/parallelSpeed

	if footprint > 0 && cfg.MemMB < footprint {
		compute *= 1 + p.PressureK*(footprint-cfg.MemMB)/footprint
	}
	return compute + io, false, nil
}

// Observe returns a noisy runtime observation. With a nil rng or zero
// NoiseStd it equals MeanRuntime. The multiplicative noise factor is clamped
// to [0.5, 1.5] so a single outlier draw cannot dominate an experiment. An
// OOM kill is reported as a value: oom is true, and no noise is drawn, when
// cfg's memory is below the floor. It is the simulator's per-invocation
// call, which allocates nothing.
func (p *Profile) Observe(cfg resources.Config, scale float64, rng *rand.Rand) (t float64, oom bool, err error) {
	t, oom, err = p.mean(cfg, scale)
	if err != nil || oom || rng == nil || p.NoiseStd == 0 {
		return t, oom, err
	}
	f := 1 + p.NoiseStd*rng.NormFloat64()
	if f < 0.5 {
		f = 0.5
	} else if f > 1.5 {
		f = 1.5
	}
	return t * f, false, nil
}

// OOMPartialFrac is the fraction of a function's steady-state runtime an
// OOM-killed invocation consumes before the kernel kills it: the working set
// typically peaks mid-execution, so under-provisioned containers burn real
// time (and money) before failing.
const OOMPartialFrac = 0.4

// OOMPartialMS estimates how long an invocation at cfg runs before being
// OOM-killed: OOMPartialFrac of the runtime the function would have had
// with adequate memory (its footprint) at the same CPU allocation.
func (p *Profile) OOMPartialMS(cfg resources.Config, scale float64) float64 {
	_, _, footprint, _ := p.scaled(scale)
	adequate := cfg
	adequate.MemMB = footprint
	if adequate.MemMB <= 0 {
		adequate.MemMB = 1
	}
	t, oom, err := p.mean(adequate, scale)
	if oom || err != nil {
		return 0
	}
	return OOMPartialFrac * t
}

// OptimalCPU returns the cost-optimal core count c* = sqrt(µ1·m·P/(µ0·S))
// implied by the Amdahl model at memory m under prices (µ0, µ1), before
// clamping to limits. It returns +Inf for fully parallel profiles (S = 0)
// and 0 for fully serial ones (P = 0).
func (p *Profile) OptimalCPU(memMB, mu0, mu1 float64) float64 {
	s := (1 - p.ParallelFrac) * p.CPUWorkMS
	par := p.ParallelFrac * p.CPUWorkMS
	if s == 0 {
		return math.Inf(1)
	}
	if par == 0 {
		return 0
	}
	return math.Sqrt(mu1 * memMB * par / (mu0 * s))
}
