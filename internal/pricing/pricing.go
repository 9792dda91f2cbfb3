// Package pricing implements the paper's cost model (§IV-A.d) and, for the
// motivation experiments, the three industry pricing schemes §I describes:
// AWS-style memory-coupled pricing, Google Cloud Functions predefined tiers,
// and Alibaba-style ratio-band validation.
//
// The paper's cost of one invocation of function v_i at configuration
// (cpu_j, mem_j) with runtime t_ij is
//
//	cost_ij = t_ij · (µ0·cpu_j + µ1·mem_j) + µ2
//
// with µ0 = 0.512 (per vCPU · time-unit), µ1 = 0.001 (per MB · time-unit),
// µ2 = 0 (request/orchestration fee). We keep runtimes in milliseconds, so
// costs come out in the same dimensionless "cost units" the paper plots.
package pricing

import "aarc/internal/resources"

// Model is a linear decoupled pricing model.
type Model struct {
	PerVCPU       float64 // µ0: price per vCPU per runtime unit
	PerMB         float64 // µ1: price per MB per runtime unit
	PerInvocation float64 // µ2: flat fee per request / orchestration step
}

// Paper returns the constants used in the paper: µ0=0.512, µ1=0.001, µ2=0.
func Paper() Model {
	return Model{PerVCPU: 0.512, PerMB: 0.001, PerInvocation: 0}
}

// Rate returns the per-time-unit price of holding cfg (µ0·cpu + µ1·mem).
func (m Model) Rate(cfg resources.Config) float64 {
	return m.PerVCPU*cfg.CPU + m.PerMB*cfg.MemMB
}

// Invocation prices a single invocation with the given runtime (ms).
func (m Model) Invocation(runtimeMS float64, cfg resources.Config) float64 {
	return runtimeMS*m.Rate(cfg) + m.PerInvocation
}

// CoupledAWSMemPerVCPU is the approximate AWS Lambda proportionality point:
// 1769 MB of memory corresponds to one full vCPU.
const CoupledAWSMemPerVCPU = 1769.0

// AWSCoupledCPU returns the vCPU share AWS Lambda grants for a memory size
// under its memory-centric scheme (capped at 6 vCPUs as on Lambda).
func AWSCoupledCPU(memMB float64) float64 {
	cpu := memMB / CoupledAWSMemPerVCPU
	if cpu > 6 {
		cpu = 6
	}
	return cpu
}

// GCFTier is one of Google Cloud Functions' predefined combinations.
type GCFTier struct {
	MemMB float64
	CPU   float64 // fractional GHz-equivalents normalized to vCPU
}

// GCFTiers returns the classic 1st-gen Cloud Functions combinations.
func GCFTiers() []GCFTier {
	return []GCFTier{
		{MemMB: 128, CPU: 0.2},
		{MemMB: 256, CPU: 0.4},
		{MemMB: 512, CPU: 0.8},
		{MemMB: 1024, CPU: 1.4},
		{MemMB: 2048, CPU: 2.4},
		{MemMB: 4096, CPU: 4.8},
		{MemMB: 8192, CPU: 4.8},
	}
}

// AlibabaRatioBand is the admissible MB-per-vCPU window in Alibaba-style
// "flexible yet limited" configuration (memory/cpu must stay in the band).
type AlibabaRatioBand struct {
	MinMBPerCPU float64
	MaxMBPerCPU float64
}

// DefaultAlibabaBand mirrors Alibaba Function Compute's 1:1 to 1:4
// GB-per-vCPU window.
func DefaultAlibabaBand() AlibabaRatioBand {
	return AlibabaRatioBand{MinMBPerCPU: 1024, MaxMBPerCPU: 4096}
}

// Allows reports whether cfg's memory-to-CPU ratio falls inside the band.
func (b AlibabaRatioBand) Allows(cfg resources.Config) bool {
	if cfg.CPU <= 0 {
		return false
	}
	r := cfg.MemMB / cfg.CPU
	return r >= b.MinMBPerCPU && r <= b.MaxMBPerCPU
}
