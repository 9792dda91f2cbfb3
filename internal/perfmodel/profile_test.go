package perfmodel

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"aarc/internal/resources"
)

func validProfile() Profile {
	return Profile{
		Name: "f", CPUWorkMS: 10000, ParallelFrac: 0.5, MaxParallel: 8, IOMS: 1000,
		FootprintMB: 512, MinMemMB: 256, PressureK: 1, NoiseStd: 0.02,
	}
}

func TestValidate(t *testing.T) {
	valid := validProfile()
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"no name", func(p *Profile) { p.Name = "" }},
		{"negative work", func(p *Profile) { p.CPUWorkMS = -1 }},
		{"negative io", func(p *Profile) { p.IOMS = -1 }},
		{"parallel > 1", func(p *Profile) { p.ParallelFrac = 1.5 }},
		{"parallel < 0", func(p *Profile) { p.ParallelFrac = -0.5 }},
		{"negative maxpar", func(p *Profile) { p.MaxParallel = -2 }},
		{"negative footprint", func(p *Profile) { p.FootprintMB = -1 }},
		{"floor above footprint", func(p *Profile) { p.MinMemMB = 1024 }},
		{"negative pressure", func(p *Profile) { p.PressureK = -1 }},
		{"huge noise", func(p *Profile) { p.NoiseStd = 0.9 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := validProfile()
			c.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Errorf("expected validation error for %s", c.name)
			}
		})
	}
}

func TestMeanRuntimeBasics(t *testing.T) {
	p := validProfile()
	// At 1 vCPU and ample memory: serial + parallel at full speed + IO.
	got, err := p.MeanRuntime(resources.Config{CPU: 1, MemMB: 1024}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 5000.0 + 5000.0 + 1000.0
	if !almost(got, want, 1e-9) {
		t.Errorf("runtime(1 vCPU) = %v, want %v", got, want)
	}
	// At 4 vCPU the parallel half speeds up 4x; serial part unchanged.
	got4, _ := p.MeanRuntime(resources.Config{CPU: 4, MemMB: 1024}, 1)
	want4 := 5000.0 + 1250.0 + 1000.0
	if !almost(got4, want4, 1e-9) {
		t.Errorf("runtime(4 vCPU) = %v, want %v", got4, want4)
	}
	// Beyond MaxParallel there is no further speedup.
	got8, _ := p.MeanRuntime(resources.Config{CPU: 8, MemMB: 1024}, 1)
	got10, _ := p.MeanRuntime(resources.Config{CPU: 10, MemMB: 1024}, 1)
	if !almost(got8, got10, 1e-9) {
		t.Errorf("runtime should saturate at MaxParallel: %v vs %v", got8, got10)
	}
}

func TestSubCoreSlowdown(t *testing.T) {
	p := validProfile()
	half, _ := p.MeanRuntime(resources.Config{CPU: 0.5, MemMB: 1024}, 1)
	// Everything runs at half speed: (5000+5000)/0.5 + 1000.
	if !almost(half, 21000, 1e-9) {
		t.Errorf("runtime(0.5 vCPU) = %v, want 21000", half)
	}
}

func TestMemoryFlatAboveFootprint(t *testing.T) {
	p := validProfile()
	t1, _ := p.MeanRuntime(resources.Config{CPU: 2, MemMB: 512}, 1)
	t2, _ := p.MeanRuntime(resources.Config{CPU: 2, MemMB: 4096}, 1)
	t3, _ := p.MeanRuntime(resources.Config{CPU: 2, MemMB: 10240}, 1)
	if t1 != t2 || t2 != t3 {
		t.Errorf("runtime should be flat above footprint: %v %v %v (Fig 2a/2b property)", t1, t2, t3)
	}
}

func TestMemoryPressure(t *testing.T) {
	p := validProfile()
	atFoot, _ := p.MeanRuntime(resources.Config{CPU: 2, MemMB: 512}, 1)
	under, _ := p.MeanRuntime(resources.Config{CPU: 2, MemMB: 384}, 1)
	if under <= atFoot {
		t.Errorf("under-footprint should slow down: %v vs %v", under, atFoot)
	}
	// Pressure applies to compute only, not IO: at 2 vCPU the compute part
	// is serial 5000 + parallel 2500, and the penalty at mem=384 is
	// 1 + 1*(512-384)/512 = 1.25.
	wantCompute := (5000.0 + 2500.0) * 1.25
	if !almost(under, wantCompute+1000, 1e-9) {
		t.Errorf("pressure runtime = %v, want %v", under, wantCompute+1000)
	}
}

func TestOOM(t *testing.T) {
	p := validProfile()
	_, err := p.MeanRuntime(resources.Config{CPU: 2, MemMB: 255}, 1)
	var oe *OOMError
	if !asOOM(err, &oe) {
		t.Fatalf("expected an *OOMError, got %v", err)
	}
	if oe.NeedMB != 256 || oe.MemMB != 255 || oe.Function != "f" {
		t.Errorf("OOMError fields: %+v", oe)
	}
	if oe.Error() == "" {
		t.Error("empty error text")
	}
}

func TestInvalidCPU(t *testing.T) {
	p := validProfile()
	if _, err := p.MeanRuntime(resources.Config{CPU: 0, MemMB: 512}, 1); err == nil || asOOM(err, new(*OOMError)) {
		t.Errorf("zero CPU should be a non-OOM error, got %v", err)
	}
}

func TestInputScaling(t *testing.T) {
	p := validProfile()
	p.InputSensitive = true
	base, _ := p.MeanRuntime(resources.Config{CPU: 1, MemMB: 2048}, 1)
	double, _ := p.MeanRuntime(resources.Config{CPU: 1, MemMB: 2048}, 2)
	if !almost(double, 2*base, 1e-9) {
		t.Errorf("scale 2 should double runtime: %v vs %v", double, base)
	}
	// The OOM floor scales too.
	if _, err := p.MeanRuntime(resources.Config{CPU: 1, MemMB: 300}, 2); !asOOM(err, new(*OOMError)) {
		t.Error("scaled floor (512) should OOM at 300MB")
	}
	if got := p.MinViableMemMB(2); got != 512 {
		t.Errorf("MinViableMemMB(2) = %v, want 512", got)
	}
	// Insensitive profiles ignore scale.
	q := validProfile()
	b1, _ := q.MeanRuntime(resources.Config{CPU: 1, MemMB: 2048}, 1)
	b2, _ := q.MeanRuntime(resources.Config{CPU: 1, MemMB: 2048}, 5)
	if b1 != b2 {
		t.Error("insensitive profile should ignore input scale")
	}
}

func TestRuntimeNoise(t *testing.T) {
	p := validProfile()
	cfg := resources.Config{CPU: 2, MemMB: 1024}
	mean, _ := p.MeanRuntime(cfg, 1)

	// nil rng: identical to mean.
	got, oom, err := p.Observe(cfg, 1, nil)
	if err != nil || oom || got != mean {
		t.Errorf("nil rng observation = %v (oom %v, %v), want %v", got, oom, err, mean)
	}

	rng := rand.New(rand.NewPCG(1, 2))
	var sum float64
	n := 2000
	for i := 0; i < n; i++ {
		v, oom, err := p.Observe(cfg, 1, rng)
		if err != nil || oom {
			t.Fatal(oom, err)
		}
		if v < mean*0.5 || v > mean*1.5 {
			t.Fatalf("noise clamp violated: %v vs mean %v", v, mean)
		}
		sum += v
	}
	avg := sum / float64(n)
	if math.Abs(avg-mean)/mean > 0.01 {
		t.Errorf("noisy average %v deviates from mean %v", avg, mean)
	}
}

// TestObserveOOM: below the floor Observe reports the kill as a value,
// draws no noise, and returns no error; a bad CPU is still an error.
func TestObserveOOM(t *testing.T) {
	p := validProfile()
	src := rand.NewPCG(1, 2)
	rng := rand.New(src)
	before := *src
	if v, oom, err := p.Observe(resources.Config{CPU: 2, MemMB: 255}, 1, rng); !oom || err != nil || v != 0 {
		t.Errorf("below the floor: %v, oom %v, %v", v, oom, err)
	}
	if *src != before {
		t.Error("an OOM observation drew noise")
	}
	if _, oom, err := p.Observe(resources.Config{CPU: 0, MemMB: 512}, 1, rng); oom || err == nil {
		t.Errorf("zero CPU: oom %v, %v; want a non-OOM error", oom, err)
	}
}

func TestOOMPartial(t *testing.T) {
	p := validProfile()
	cfg := resources.Config{CPU: 2, MemMB: 100} // below floor
	partial := p.OOMPartialMS(cfg, 1)
	full, _ := p.MeanRuntime(resources.Config{CPU: 2, MemMB: p.FootprintMB}, 1)
	if !almost(partial, OOMPartialFrac*full, 1e-9) {
		t.Errorf("OOMPartialMS = %v, want %v", partial, OOMPartialFrac*full)
	}
}

func TestOptimalCPU(t *testing.T) {
	// p = 0.5, work arbitrary: c* = sqrt(µ1·m·P/(µ0·S)) = sqrt(m·µ1/µ0) at P=S.
	p := validProfile()
	got := p.OptimalCPU(512, 0.512, 0.001)
	if !almost(got, 1, 1e-9) {
		t.Errorf("OptimalCPU = %v, want 1 (the chatbot design point)", got)
	}
	serial := p
	serial.ParallelFrac = 0
	if serial.OptimalCPU(512, 0.512, 0.001) != 0 {
		t.Error("fully serial profile should have c*=0")
	}
	par := p
	par.ParallelFrac = 1
	if !math.IsInf(par.OptimalCPU(512, 0.512, 0.001), 1) {
		t.Error("fully parallel profile should have c*=+Inf")
	}
}

// Property: runtime is non-increasing in CPU (more cores never hurt).
func TestQuickRuntimeMonotoneCPU(t *testing.T) {
	p := validProfile()
	f := func(c1, c2 uint16, mem uint16) bool {
		a := 0.1 + float64(c1%100)/10
		b := a + float64(c2%100)/10
		m := 256 + float64(mem%8000)
		ta, err1 := p.MeanRuntime(resources.Config{CPU: a, MemMB: m}, 1)
		tb, err2 := p.MeanRuntime(resources.Config{CPU: b, MemMB: m}, 1)
		if err1 != nil || err2 != nil {
			return false
		}
		return tb <= ta+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: runtime is non-increasing in memory (more memory never hurts).
func TestQuickRuntimeMonotoneMem(t *testing.T) {
	p := validProfile()
	f := func(m1, m2 uint16, c uint16) bool {
		a := 256 + float64(m1%8000)
		b := a + float64(m2%8000)
		cpu := 0.1 + float64(c%100)/10
		ta, err1 := p.MeanRuntime(resources.Config{CPU: cpu, MemMB: a}, 1)
		tb, err2 := p.MeanRuntime(resources.Config{CPU: cpu, MemMB: b}, 1)
		if err1 != nil || err2 != nil {
			return false
		}
		return tb <= ta+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: runtime is always at least the IO floor.
func TestQuickRuntimeAboveIO(t *testing.T) {
	p := validProfile()
	f := func(c, m uint16) bool {
		cpu := 0.1 + float64(c%100)/10
		mem := 256 + float64(m%8000)
		tr, err := p.MeanRuntime(resources.Config{CPU: cpu, MemMB: mem}, 1)
		if err != nil {
			return false
		}
		return tr >= p.IOMS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func asOOM(err error, target **OOMError) bool {
	if err == nil {
		return false
	}
	oe, ok := err.(*OOMError)
	if ok {
		*target = oe
	}
	return ok
}
