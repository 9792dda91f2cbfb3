package resources

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigString(t *testing.T) {
	c := Config{CPU: 2, MemMB: 1024}
	if got := c.String(); got != "2.0vCPU/1024MB" {
		t.Errorf("String = %q", got)
	}
}

func TestConfigValidZero(t *testing.T) {
	if !(Config{CPU: 1, MemMB: 128}).Valid() {
		t.Error("positive config should be valid")
	}
	for _, c := range []Config{{}, {CPU: 1}, {MemMB: 128}, {CPU: -1, MemMB: 128}} {
		if c.Valid() {
			t.Errorf("%v should be invalid", c)
		}
	}
	if !(Config{}).IsZero() || (Config{CPU: 1}).IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestResourceTypeString(t *testing.T) {
	if CPU.String() != "cpu" || Memory.String() != "mem" {
		t.Error("ResourceType strings wrong")
	}
	if !strings.Contains(ResourceType(9).String(), "9") {
		t.Error("unknown type should include its value")
	}
}

func TestDefaultLimitsValidate(t *testing.T) {
	l := DefaultLimits()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := l
	bad.CPUStep = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero step should be invalid")
	}
	bad = l
	bad.MaxMemMB = 64
	if err := bad.Validate(); err == nil {
		t.Error("max<min should be invalid")
	}
	bad = l
	bad.MinCPU = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MinCPU should be invalid")
	}
}

func TestClampContains(t *testing.T) {
	l := DefaultLimits()
	c := l.Clamp(Config{CPU: 50, MemMB: 1})
	if c.CPU != l.MaxCPU || c.MemMB != l.MinMemMB {
		t.Errorf("Clamp = %v", c)
	}
	if !l.Contains(c) {
		t.Error("clamped config must be contained")
	}
	if l.Contains(Config{CPU: 11, MemMB: 128}) {
		t.Error("out-of-box config should not be contained")
	}
}

func TestSnap(t *testing.T) {
	l := DefaultLimits()
	s := l.Snap(Config{CPU: 1.234, MemMB: 700})
	if !almost(s.CPU, 1.2, 1e-9) {
		t.Errorf("Snap CPU = %v, want 1.2", s.CPU)
	}
	if s.MemMB != 704 {
		t.Errorf("Snap Mem = %v, want 704 (128 + 9*64)", s.MemMB)
	}
	// Snapping an in-grid value is the identity.
	g := Config{CPU: 2.0, MemMB: 1024}
	if got := l.Snap(g); !almost(got.CPU, 2.0, 1e-9) || got.MemMB != 1024 {
		t.Errorf("Snap(grid point) = %v", got)
	}
	// Above the box snaps down into it.
	hi := l.Snap(Config{CPU: 99, MemMB: 99999})
	if hi.CPU > l.MaxCPU || hi.MemMB > l.MaxMemMB {
		t.Errorf("Snap above box = %v", hi)
	}
}

func TestNormalizeDenormalizeRoundTrip(t *testing.T) {
	l := DefaultLimits()
	cfg := Config{CPU: 3.7, MemMB: 4096}
	c01, m01 := l.Normalize(cfg)
	back := l.Denormalize(c01, m01)
	if !almost(back.CPU, cfg.CPU, 1e-9) || !almost(back.MemMB, cfg.MemMB, 1e-6) {
		t.Errorf("round trip %v -> %v", cfg, back)
	}
	// Out-of-range normalized inputs clamp.
	lo := l.Denormalize(-1, 2)
	if lo.CPU != l.MinCPU || lo.MemMB != l.MaxMemMB {
		t.Errorf("Denormalize clamping wrong: %v", lo)
	}
}

func TestCoupled(t *testing.T) {
	c := Coupled(2048)
	if c.CPU != 2 || c.MemMB != 2048 {
		t.Errorf("Coupled(2048) = %v", c)
	}
	c = Coupled(512)
	if c.CPU != 0.5 {
		t.Errorf("Coupled(512).CPU = %v", c.CPU)
	}
}

func TestAssignmentCloneEqual(t *testing.T) {
	a := Assignment{"f": {CPU: 1, MemMB: 128}, "g": {CPU: 2, MemMB: 256}}
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone should be equal")
	}
	b["f"] = Config{CPU: 3, MemMB: 128}
	if a.Equal(b) {
		t.Error("mutated clone should differ")
	}
	if a["f"].CPU != 1 {
		t.Error("clone mutation leaked into original")
	}
	if a.Equal(Assignment{"f": a["f"]}) {
		t.Error("different sizes should not be equal")
	}
	if a.Equal(Assignment{"f": a["f"], "x": a["g"]}) {
		t.Error("different keys should not be equal")
	}
}

func TestAssignmentKeysString(t *testing.T) {
	a := Assignment{"zeta": {CPU: 1, MemMB: 128}, "alpha": {CPU: 2, MemMB: 256}}
	ks := a.Keys()
	if len(ks) != 2 || ks[0] != "alpha" || ks[1] != "zeta" {
		t.Errorf("Keys = %v, want sorted", ks)
	}
	s := a.String()
	if !strings.HasPrefix(s, "alpha=") || !strings.Contains(s, "zeta=") {
		t.Errorf("String = %q", s)
	}
}

func TestUniform(t *testing.T) {
	a := Uniform([]string{"x", "y"}, Config{CPU: 1, MemMB: 128})
	if len(a) != 2 || a["x"] != a["y"] {
		t.Errorf("Uniform = %v", a)
	}
}

// Property: Snap is idempotent and stays inside the box.
func TestQuickSnapIdempotent(t *testing.T) {
	l := DefaultLimits()
	f := func(cpuRaw, memRaw float64) bool {
		if math.IsNaN(cpuRaw) || math.IsNaN(memRaw) || math.IsInf(cpuRaw, 0) || math.IsInf(memRaw, 0) {
			return true
		}
		cfg := Config{CPU: math.Mod(math.Abs(cpuRaw), 20), MemMB: math.Mod(math.Abs(memRaw), 20000)}
		s1 := l.Snap(cfg)
		s2 := l.Snap(s1)
		return l.Contains(s1) && almost(s1.CPU, s2.CPU, 1e-9) && almost(s1.MemMB, s2.MemMB, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Normalize maps into [0,1]² for contained configs.
func TestQuickNormalizeRange(t *testing.T) {
	l := DefaultLimits()
	f := func(c01, m01 float64) bool {
		if math.IsNaN(c01) || math.IsNaN(m01) {
			return true
		}
		cfg := l.Denormalize(math.Mod(math.Abs(c01), 1), math.Mod(math.Abs(m01), 1))
		nc, nm := l.Normalize(cfg)
		return nc >= 0 && nc <= 1 && nm >= 0 && nm <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
