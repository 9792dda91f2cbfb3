package pricing

import (
	"math"
	"testing"
	"testing/quick"

	"aarc/internal/resources"
)

func TestPaperConstants(t *testing.T) {
	m := Paper()
	if m.PerVCPU != 0.512 || m.PerMB != 0.001 || m.PerInvocation != 0 {
		t.Errorf("Paper() = %+v, want µ0=0.512 µ1=0.001 µ2=0", m)
	}
}

func TestRateInvocation(t *testing.T) {
	m := Paper()
	cfg := resources.Config{CPU: 2, MemMB: 1024}
	wantRate := 0.512*2 + 0.001*1024
	if got := m.Rate(cfg); !almost(got, wantRate, 1e-12) {
		t.Errorf("Rate = %v, want %v", got, wantRate)
	}
	if got := m.Invocation(1000, cfg); !almost(got, 1000*wantRate, 1e-9) {
		t.Errorf("Invocation = %v", got)
	}
	// Per-invocation fee is additive.
	m.PerInvocation = 7
	if got := m.Invocation(0, cfg); got != 7 {
		t.Errorf("flat fee = %v, want 7", got)
	}
}

func TestAWSCoupledCPU(t *testing.T) {
	if got := AWSCoupledCPU(1769); !almost(got, 1, 1e-12) {
		t.Errorf("1769MB = %v vCPU, want 1", got)
	}
	if got := AWSCoupledCPU(20000); got != 6 {
		t.Errorf("cap = %v, want 6", got)
	}
	if AWSCoupledCPU(128) <= 0 {
		t.Error("small memory should still get some CPU")
	}
}

func TestGCFTiers(t *testing.T) {
	tiers := GCFTiers()
	if len(tiers) == 0 {
		t.Fatal("no tiers")
	}
	for i := 1; i < len(tiers); i++ {
		if tiers[i].MemMB < tiers[i-1].MemMB {
			t.Error("tiers should be sorted by memory")
		}
	}
}

func TestAlibabaBand(t *testing.T) {
	b := DefaultAlibabaBand()
	if !b.Allows(resources.Config{CPU: 1, MemMB: 2048}) {
		t.Error("2048MB/1vCPU should be allowed (ratio 2048)")
	}
	if b.Allows(resources.Config{CPU: 4, MemMB: 512}) {
		t.Error("512MB/4vCPU (ratio 128) should be rejected")
	}
	if b.Allows(resources.Config{CPU: 0, MemMB: 512}) {
		t.Error("zero CPU should be rejected")
	}
}

// Property: invocation cost is monotone in runtime, CPU and memory.
func TestQuickCostMonotone(t *testing.T) {
	m := Paper()
	f := func(t1, t2, c1, c2, mm1, mm2 uint16) bool {
		tA, tB := float64(t1), float64(t1)+float64(t2)
		cA, cB := 0.1+float64(c1%100)/10, 0.1+float64(c1%100)/10+float64(c2%100)/10
		mA, mB := 128+float64(mm1%10000), 128+float64(mm1%10000)+float64(mm2%10000)
		base := m.Invocation(tA, resources.Config{CPU: cA, MemMB: mA})
		return m.Invocation(tB, resources.Config{CPU: cA, MemMB: mA}) >= base-1e-9 &&
			m.Invocation(tA, resources.Config{CPU: cB, MemMB: mA}) >= base-1e-9 &&
			m.Invocation(tA, resources.Config{CPU: cA, MemMB: mB}) >= base-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
