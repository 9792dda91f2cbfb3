package testutil

import (
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// CheckNoLeaks snapshots the live goroutines and returns a function
// that, called at test end (normally via t.Cleanup through
// VerifyNoLeaks), fails the test if goroutines created since the
// snapshot are still running. It exists to back the Service contract:
// a Service runs no goroutine of its own between requests, and Close
// must end every singleflight leader it owns — a goroutine outliving
// Close is a leak, not a scheduling artifact.
//
// Shutdown is asynchronous (a goroutine observes a cancelled context or
// a closed channel at its next select), so the check retries with
// backoff for up to five seconds before declaring a leak.
func CheckNoLeaks(t testing.TB) func() {
	t.Helper()
	before := goroutineIDs()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		var leaked []string
		for {
			leaked = leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("%d goroutine(s) leaked past the checkpoint:\n%s",
			len(leaked), strings.Join(leaked, "\n"))
	}
}

// VerifyNoLeaks arms a leak check for the remainder of the test: every
// goroutine spawned after this call must exit before the test does.
// Call it before constructing the Service (or other component) under
// test, and close the component before the test returns.
func VerifyNoLeaks(t testing.TB) {
	t.Helper()
	t.Cleanup(CheckNoLeaks(t))
}

// goroutineIDs returns the set of live goroutine IDs.
func goroutineIDs() map[string]bool {
	ids := make(map[string]bool)
	for _, g := range goroutineDump() {
		ids[goroutineID(g)] = true
	}
	return ids
}

// leakedSince returns the stacks of goroutines not in before and not
// on the ignore list, headers first for readable failure output.
func leakedSince(before map[string]bool) []string {
	var leaked []string
	for _, g := range goroutineDump() {
		if before[goroutineID(g)] || ignorable(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	sort.Strings(leaked)
	return leaked
}

// goroutineDump returns one stack-trace block per live goroutine.
func goroutineDump() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var gs []string
	for _, block := range strings.Split(string(buf), "\n\n") {
		if strings.HasPrefix(block, "goroutine ") {
			gs = append(gs, block)
		}
	}
	return gs
}

// goroutineID extracts the numeric ID from a stack block header
// ("goroutine 42 [running]: ...").
func goroutineID(block string) string {
	rest := strings.TrimPrefix(block, "goroutine ")
	if i := strings.IndexByte(rest, ' '); i > 0 {
		return rest[:i]
	}
	return rest
}

// ignorable filters runtime- and harness-owned goroutines that come
// and go on their own schedule and are never a component leak.
func ignorable(block string) bool {
	for _, frame := range []string{
		"testing.(*T).Run",          // subtest runners
		"testing.tRunner",           // the test itself on another path
		"testing.runTests",          // the harness driver
		"runtime.gc",                // collector workers
		"runtime.bgsweep",           // background sweeper
		"runtime.bgscavenge",        // background scavenger
		"runtime/trace",             // tracing
		"signal.signal_recv",        // signal handling
		"time.goFunc",               // fired timer callbacks mid-flight
		"os/signal.loop",            // signal loop
		"runtime.ReadMemStats",      // concurrent stats readers
		"runtime.(*scavengerState)", // scavenger parked state
	} {
		if strings.Contains(block, frame) {
			return true
		}
	}
	// A goroutine already parked in exit has no interesting frames.
	return strings.Contains(block, "[runnable]:\nruntime.goexit")
}
