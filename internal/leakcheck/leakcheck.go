// Package leakcheck is a runtime goroutine-leak detector for tests: it
// proves that every goroutine a test starts has ended once the test and its
// cleanups are done, under the schedules the test drives.
//
// Usage, first line of a test:
//
//	leakcheck.Check(t)
//
// Check snapshots the IDs of every live goroutine and registers a cleanup
// that re-snapshots after the test (and any later-registered cleanups, such
// as an engine Close) have run. Goroutines that appeared during the test get
// a grace window to finish — workers legitimately race with the cleanup
// that unblocks them — and whatever survives the window is reported with its
// full stack.
//
// The diff is by goroutine ID, so pre-existing runtime and testing
// machinery is never reported, and tests sharing a binary do not interfere
// as long as each checks only its own window.
package leakcheck

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// testingTB is the subset of testing.TB the checker needs; taking the
// interface keeps the package importable from any test without a testing
// dependency cycle and makes the checker itself testable.
type testingTB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// Defaults for the grace window: long enough for a canceled worker to
// observe ctx.Done() and unwind even under -race scheduling, short enough
// not to drag the suite.
const (
	defaultWait = 2 * time.Second
	pollEvery   = 10 * time.Millisecond
)

// Check arms the leak detector for the current test. Call it before any
// helper that registers its own cleanup (testing cleanups run last-in
// first-out, and the diff must run after the engine/coordinator Close).
func Check(t testingTB) {
	t.Helper()
	before := liveIDs(capture())
	t.Cleanup(func() {
		for _, g := range settle(before, defaultWait) {
			t.Errorf("leaked goroutine %d [%s]:\n%s", g.id, g.state, g.stack)
		}
	})
}

// goroutine is one parsed record of a runtime.Stack(buf, true) dump.
type goroutine struct {
	id    uint64
	state string // the bracketed scheduler state: "running", "chan receive", ...
	stack string // the frames, without the header line
}

// capture parses the full-process stack dump, growing the buffer until the
// dump fits.
func capture() []goroutine {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return parseDump(string(buf[:n]))
		}
		buf = make([]byte, len(buf)*2)
	}
}

// parseDump splits a dump into records. Each record starts with a header of
// the form "goroutine 42 [chan receive]:"; records are separated by blank
// lines. Unparseable records are skipped rather than guessed at.
func parseDump(dump string) []goroutine {
	var out []goroutine
	for _, rec := range strings.Split(dump, "\n\n") {
		rec = strings.TrimSpace(rec)
		header, frames, _ := strings.Cut(rec, "\n")
		id, state, ok := parseHeader(header)
		if !ok {
			continue
		}
		out = append(out, goroutine{id: id, state: state, stack: frames})
	}
	return out
}

// parseHeader extracts the ID and scheduler state from one header line.
func parseHeader(line string) (id uint64, state string, ok bool) {
	rest, found := strings.CutPrefix(line, "goroutine ")
	if !found {
		return 0, "", false
	}
	idStr, rest, found := strings.Cut(rest, " [")
	if !found {
		return 0, "", false
	}
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		return 0, "", false
	}
	state, _, found = strings.Cut(rest, "]")
	if !found {
		return 0, "", false
	}
	return id, state, true
}

func liveIDs(gs []goroutine) map[uint64]bool {
	out := make(map[uint64]bool, len(gs))
	for _, g := range gs {
		out[g.id] = true
	}
	return out
}

// settle polls until every goroutine not present in before has exited, or
// the wait budget runs out; it returns the stragglers (empty means clean).
func settle(before map[uint64]bool, wait time.Duration) []goroutine {
	deadline := time.Now().Add(wait)
	for {
		leaked := diff(capture(), before)
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(pollEvery)
	}
}

// diff returns the goroutines of now that are not in before and not benign.
func diff(now []goroutine, before map[uint64]bool) []goroutine {
	var out []goroutine
	for _, g := range now {
		if before[g.id] || benign(g) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// benign filters goroutines that are new since the snapshot but are not the
// test's fault: the runtime and the testing framework start helpers on
// their own schedule (GC workers, timer goroutines mid-fire, the goroutine
// running this very check when cleanup hops goroutines).
func benign(g goroutine) bool {
	for _, marker := range []string{
		"runtime.gc",
		"runtime.bgscavenge",
		"runtime.bgsweep",
		"runtime/trace.Start",
		"testing.runTests",
		"testing.(*T).Run",
		"time.goFunc", // a time.AfterFunc body caught mid-fire
	} {
		if strings.Contains(g.stack, marker) {
			return true
		}
	}
	return false
}

// String makes diagnostics from helpers readable in verbose failures.
func (g goroutine) String() string {
	return fmt.Sprintf("goroutine %d [%s]", g.id, g.state)
}
