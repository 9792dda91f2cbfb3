package simfaas

import (
	"sync"
	"testing"

	"aarc/internal/perfmodel"
	"aarc/internal/resources"
)

func prof() *perfmodel.Profile {
	return &perfmodel.Profile{
		Name: "f", CPUWorkMS: 1000, ParallelFrac: 0.5, MaxParallel: 4, IOMS: 100,
		FootprintMB: 512, MinMemMB: 256, PressureK: 1,
	}
}

func TestColdThenWarm(t *testing.T) {
	p := New(DefaultOptions())
	var c Container
	cfg := resources.Config{CPU: 2, MemMB: 1024}

	inv1, err := p.Invoke(&c, prof(), cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inv1.Cold || inv1.ColdStartMS <= 0 {
		t.Errorf("first invocation should be cold: %+v", inv1)
	}
	wantCold := DefaultOptions().ColdStartBaseMS + DefaultOptions().ColdStartPerGBMS*1024/1024
	if inv1.ColdStartMS != wantCold {
		t.Errorf("cold start = %v, want %v", inv1.ColdStartMS, wantCold)
	}

	inv2, err := p.Invoke(&c, prof(), cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inv2.Cold || inv2.ColdStartMS != 0 {
		t.Errorf("second invocation should be warm: %+v", inv2)
	}
	if inv2.RuntimeMS >= inv1.RuntimeMS {
		t.Error("warm run should be faster than cold run")
	}

	m := c.Metrics()
	if m.Invocations != 2 || m.ColdStarts != 1 || m.WarmStarts != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestConfigChangeForcesCold(t *testing.T) {
	p := New(DefaultOptions())
	var c Container
	a := resources.Config{CPU: 2, MemMB: 1024}
	b := resources.Config{CPU: 2, MemMB: 2048}
	if _, err := p.Invoke(&c, prof(), a, 1, nil); err != nil {
		t.Fatal(err)
	}
	inv, err := p.Invoke(&c, prof(), b, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Cold {
		t.Error("config change must force a cold start")
	}
}

func TestDistinctKeysDistinctContainers(t *testing.T) {
	p := New(DefaultOptions())
	var c1, c2 Container
	cfg := resources.Config{CPU: 2, MemMB: 1024}
	if _, err := p.Invoke(&c1, prof(), cfg, 1, nil); err != nil {
		t.Fatal(err)
	}
	inv, err := p.Invoke(&c2, prof(), cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Cold {
		t.Error("a different container should start cold")
	}
	for i, c := range []*Container{&c1, &c2} {
		if inv, _ := p.Invoke(c, prof(), cfg, 1, nil); inv.Cold {
			t.Errorf("container %d should be kept warm", i+1)
		}
	}
}

func TestKeepAliveDisabled(t *testing.T) {
	opts := DefaultOptions()
	opts.KeepAlive = false
	p := New(opts)
	var c Container
	cfg := resources.Config{CPU: 2, MemMB: 1024}
	p.Invoke(&c, prof(), cfg, 1, nil)
	inv, _ := p.Invoke(&c, prof(), cfg, 1, nil)
	if !inv.Cold {
		t.Error("with keep-alive off every invocation is cold")
	}
	if m := c.Metrics(); m.WarmStarts != 0 || m.ColdStarts != 2 {
		t.Errorf("no warm container should be held: %+v", m)
	}
}

func TestOOMKill(t *testing.T) {
	p := New(DefaultOptions())
	var c Container
	cfg := resources.Config{CPU: 2, MemMB: 128} // below the 256 floor
	inv, err := p.Invoke(&c, prof(), cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.OOM {
		t.Fatal("expected OOM")
	}
	if inv.RuntimeMS <= inv.ColdStartMS {
		t.Error("OOM run should consume some partial runtime")
	}
	if c.Metrics().OOMKills != 1 {
		t.Errorf("OOMKills = %d", c.Metrics().OOMKills)
	}
	if again, _ := p.Invoke(&c, prof(), cfg, 1, nil); !again.Cold {
		t.Error("OOM-killed container must not stay warm")
	}
	// Partial runtime reflects the would-be execution, not just detection.
	want := prof().OOMPartialMS(cfg, 1)
	if inv.RuntimeMS-inv.ColdStartMS != want {
		t.Errorf("partial = %v, want %v", inv.RuntimeMS-inv.ColdStartMS, want)
	}
}

func TestOOMKillsWarmContainer(t *testing.T) {
	p := New(DefaultOptions())
	var c Container
	good := resources.Config{CPU: 2, MemMB: 1024}
	if _, err := p.Invoke(&c, prof(), good, 1, nil); err != nil {
		t.Fatal(err)
	}
	if inv, _ := p.Invoke(&c, prof(), resources.Config{CPU: 2, MemMB: 128}, 1, nil); !inv.OOM {
		t.Fatal("expected OOM")
	}
	if inv, _ := p.Invoke(&c, prof(), good, 1, nil); !inv.Cold {
		t.Error("an OOM kill must take the kept-alive container with it")
	}
}

func TestInvokeErrors(t *testing.T) {
	p := New(DefaultOptions())
	var c Container
	if _, err := p.Invoke(&c, prof(), resources.Config{}, 1, nil); err == nil {
		t.Error("invalid config should error")
	}
	if m := c.Metrics(); m != (Metrics{}) {
		t.Errorf("rejected invocations were counted: %+v", m)
	}
}

// TestConcurrentInvoke drives one shared Platform from four goroutines,
// each invoking its own Container eight times.
func TestConcurrentInvoke(t *testing.T) {
	p := New(DefaultOptions())
	cfg := resources.Config{CPU: 1, MemMB: 512}
	var cs [4]Container
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(c *Container) {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				if _, err := p.Invoke(c, prof(), cfg, 1, nil); err != nil {
					t.Errorf("concurrent invoke: %v", err)
				}
			}
		}(&cs[i])
	}
	wg.Wait()
	total := 0
	for i := range cs {
		m := cs[i].Metrics()
		total += m.Invocations
		if m.ColdStarts != 1 || m.WarmStarts != 7 {
			t.Errorf("container %d: %+v, want one cold start, then warm", i, m)
		}
	}
	if total != 32 {
		t.Errorf("Invocations = %d, want 32", total)
	}
}

func TestColdStartScalesWithMemory(t *testing.T) {
	p := New(DefaultOptions())
	small := p.ColdStartMS(resources.Config{CPU: 1, MemMB: 512})
	large := p.ColdStartMS(resources.Config{CPU: 1, MemMB: 8192})
	if large <= small {
		t.Error("cold start should grow with memory size")
	}
}
