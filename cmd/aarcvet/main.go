// Command aarcvet is the project's vet suite: five analyzers that
// machine-check the serving stack's context, store-write and
// concurrency invariants (DESIGN.md §13–§14), one of them a local
// shadow check. Run it through cmd/go:
//
//	go build -o bin/aarcvet ./cmd/aarcvet
//	go vet -vettool=$PWD/bin/aarcvet ./...
//
// or run it directly on package patterns (it re-execs go vet):
//
//	bin/aarcvet ./...
//
// Three of the analyzers are syntactic/type-based (ctxflow, shadow,
// tierorder). The other two, lockorder and nilness, are built on
// internal/analysis/flow, a stdlib-only CFG/dataflow layer that stands
// in for the golang.org/x/tools SSA packages this offline build cannot
// import. lockorder runs one held-lock dataflow per function for both
// of its checks: no search, store I/O or evaluation under a mutex, and
// no lock-order cycles. It is interprocedural: it exports per-package
// facts through the vet .cfg/vetx protocol, so a lock acquired in
// internal/store and another in internal/service can still form a
// reported cycle. DESIGN.md §13 records which defects each analyzer
// catches that no tier-1 test does; §14 documents the IR and the
// canonical lock order the suite enforces.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"aarc/internal/analysis"
	"aarc/internal/analysis/ctxflow"
	"aarc/internal/analysis/lockorder"
	"aarc/internal/analysis/nilness"
	"aarc/internal/analysis/shadow"
	"aarc/internal/analysis/tierorder"
	"aarc/internal/analysis/unitchecker"
)

func suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		lockorder.Analyzer,
		nilness.Analyzer,
		shadow.Analyzer,
		tierorder.Analyzer,
	}
}

func main() {
	// A standalone convenience in front of the vet protocol: bare
	// package patterns re-exec through go vet. A trailing .cfg argument
	// (or the -flags/-V handshakes) means cmd/go is driving us.
	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") && !strings.HasSuffix(args[len(args)-1], ".cfg") {
		os.Exit(execGoVet(args))
	}
	unitchecker.Main(suite()...)
}

// execGoVet reruns the named package patterns through go vet with this
// binary as the vettool, so `aarcvet ./...` works as a command.
func execGoVet(patterns []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode()
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}
