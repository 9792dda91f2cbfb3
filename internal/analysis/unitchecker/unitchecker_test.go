package unitchecker_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVettoolProtocol is the end-to-end check of the whole stack: build
// the real aarcvet binary, point `go vet -vettool` at a throwaway
// module seeded with a ctxflow violation and a nested lock acquisition
// in a non-test file and, in a _test.go file, a lock-hygiene violation,
// and require all three diagnostics to surface through cmd/go with a
// non-zero exit. The third pins that lockorder still reports on the
// test variant cmd/go vets. This is the same path scripts/lint.sh and
// CI use.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to cmd/go")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}

	moduleRoot, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}

	tmp := t.TempDir()
	vettool := filepath.Join(tmp, "aarcvet")
	build := exec.Command(goTool, "build", "-o", vettool, "aarc/cmd/aarcvet")
	build.Dir = moduleRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building aarcvet: %v\n%s", err, out)
	}

	// A one-package module that detaches from its caller's context
	// without a marker — the seeded violation ctxflow exists to catch.
	mod := filepath.Join(tmp, "mod")
	if err := os.MkdirAll(mod, 0o777); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(mod, "go.mod"), "module vetprobe\n\ngo 1.21\n")
	writeFile(t, filepath.Join(mod, "detach.go"), `package vetprobe

import "context"

func Detach(ctx context.Context) context.Context {
	return context.WithoutCancel(ctx)
}
`)
	// Two mutexes, the second acquired while the first is held.
	writeFile(t, filepath.Join(mod, "nest.go"), nestSrc("\tr.b.Lock()\n\tr.b.Unlock()\n\tr.a.Unlock()\n"))
	// A method named Search called while a sync.Mutex is held.
	writeFile(t, filepath.Join(mod, "probe_test.go"), `package vetprobe

import "sync"

type engine struct{}

func (engine) Search(q string) string { return q }

type probe struct {
	mu  sync.Mutex
	eng engine
}

func (p *probe) lookup(q string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.eng.Search(q)
}
`)

	vet := exec.Command(goTool, "vet", "-vettool="+vettool, "./...")
	vet.Dir = mod
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet exited 0 on a seeded WithoutCancel violation; output:\n%s", out)
	}
	for _, want := range []string{
		"context.WithoutCancel detaches from the caller's cancellation",
		"acquiring mutex r.b while holding mutex r.a",
		"a search while holding mutex p.mu",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("diagnostic %q did not surface through the vet protocol; output:\n%s", want, out)
		}
	}

	// Fix the violations and the same invocation must go green: the
	// non-zero exit above was the findings, not protocol breakage.
	writeFile(t, filepath.Join(mod, "detach.go"), `package vetprobe

import "context"

func Detach(ctx context.Context) context.Context {
	return ctx
}
`)
	writeFile(t, filepath.Join(mod, "nest.go"), nestSrc("\tr.a.Unlock()\n\tr.b.Lock()\n\tr.b.Unlock()\n"))
	writeFile(t, filepath.Join(mod, "probe_test.go"), `package vetprobe

import "sync"

type engine struct{}

func (engine) Search(q string) string { return q }

type probe struct {
	mu  sync.Mutex
	eng engine
}

func (p *probe) lookup(q string) string {
	p.mu.Lock()
	p.mu.Unlock()
	return p.eng.Search(q)
}
`)
	vet = exec.Command(goTool, "vet", "-vettool="+vettool, "./...")
	vet.Dir = mod
	if out, err := vet.CombinedOutput(); err != nil {
		t.Fatalf("go vet failed on a clean module: %v\n%s", err, out)
	}
}

// nestSrc is a file whose pair.both locks a and then runs tail.
func nestSrc(tail string) string {
	return `package vetprobe

import "sync"

type pair struct{ a, b sync.Mutex }

func (r *pair) both() {
	r.a.Lock()
` + tail + `}
`
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
		t.Fatal(err)
	}
}
