package faultinject

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestDisabledIsNoop(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("enabled with nothing armed")
	}
	if err := Fire("core.decode"); err != nil {
		t.Fatalf("Fire with nothing armed: %v", err)
	}
	data := []byte("hello")
	if out := Corrupt("storage.tile", data); !bytes.Equal(out, data) {
		t.Fatalf("Corrupt with nothing armed changed data: %q", out)
	}
}

func TestErrorFaultAndTimes(t *testing.T) {
	t.Cleanup(Reset)
	Arm("p", Fault{Err: errors.New("boom"), Times: 2})
	if !Enabled() {
		t.Fatal("not enabled after Arm")
	}
	for i := 0; i < 2; i++ {
		if err := Fire("p"); err == nil || err.Error() != "boom" {
			t.Fatalf("firing %d: %v", i, err)
		}
	}
	if err := Fire("p"); err != nil {
		t.Fatalf("fault should have disarmed after 2 firings: %v", err)
	}
	if Enabled() {
		t.Fatal("still enabled after self-disarm")
	}
}

func TestPanicFault(t *testing.T) {
	t.Cleanup(Reset)
	Arm("p", Fault{Panic: "kaboom", Times: 1})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic")
		}
	}()
	Fire("p")
}

func TestSleepFault(t *testing.T) {
	t.Cleanup(Reset)
	Arm("p", Fault{Delay: 30 * time.Millisecond, Times: 1})
	t0 := time.Now()
	if err := Fire("p"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("slept only %v", d)
	}
}

func TestHookFault(t *testing.T) {
	t.Cleanup(Reset)
	called := false
	Arm("p", Fault{Hook: func() error { called = true; return errors.New("from hook") }})
	if err := Fire("p"); err == nil || err.Error() != "from hook" {
		t.Fatalf("hook error: %v", err)
	}
	if !called {
		t.Fatal("hook not called")
	}
}

func TestCorruptFault(t *testing.T) {
	t.Cleanup(Reset)
	Arm("p", Fault{Corrupt: true})
	data := []byte("a perfectly healthy tile file payload")
	orig := append([]byte(nil), data...)
	out := Corrupt("p", data)
	if bytes.Equal(out, data) {
		t.Fatal("data not corrupted")
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("input modified in place")
	}
}

func TestParse(t *testing.T) {
	t.Cleanup(Reset)
	spec := "core.decode=error:bad, ppvp.decode=sleep:1ms ,shard.net.send=panic:oh no,storage.tile=corrupt"
	if err := Parse(spec); err != nil {
		t.Fatal(err)
	}
	if err := Fire(PointCoreDecode); !errors.Is(err, ErrInjected) {
		t.Fatalf("core.decode: %v", err)
	}
	if err := Fire(PointPPVPDecode); err != nil {
		t.Fatalf("ppvp.decode: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("shard.net.send did not panic")
			}
		}()
		Fire(PointShardNetSend)
	}()
	if out := Corrupt(PointStorageTile, []byte("0123456789")); bytes.Equal(out, []byte("0123456789")) {
		t.Error("storage.tile did not corrupt")
	}

	for _, bad := range []string{"noequals", "core.decode=launch", "ppvp.decode=sleep:fast"} {
		if err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseWhitespaceOnlyItems(t *testing.T) {
	t.Cleanup(Reset)
	// Whitespace-only and empty items are skipped, not errors.
	if err := Parse("  ,\t, ,"); err != nil {
		t.Fatalf("whitespace-only spec rejected: %v", err)
	}
	if Enabled() {
		t.Fatal("whitespace-only spec armed something")
	}
	if err := Parse(" core.decode=error , , storage.tile=corrupt "); err != nil {
		t.Fatalf("spec with blank items rejected: %v", err)
	}
	if err := Fire(PointCoreDecode); !errors.Is(err, ErrInjected) {
		t.Fatalf("core.decode not armed: %v", err)
	}
}

func TestParseDuplicatePointLastWins(t *testing.T) {
	t.Cleanup(Reset)
	if err := Parse("core.decode=error:first,core.decode=error:second"); err != nil {
		t.Fatal(err)
	}
	err := Fire(PointCoreDecode)
	if err == nil || !strings.Contains(err.Error(), "second") {
		t.Fatalf("duplicate point did not take the last spec: %v", err)
	}
	// Only one armed point, not two.
	Disarm(PointCoreDecode)
	if Enabled() {
		t.Fatal("duplicate arming leaked an armed count")
	}
}

func TestParseTimesModifier(t *testing.T) {
	t.Cleanup(Reset)
	if err := Parse("core.decode=times:2:error:boom"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := Fire(PointCoreDecode); err == nil {
			t.Fatalf("firing %d returned nil", i)
		}
	}
	if err := Fire(PointCoreDecode); err != nil {
		t.Fatalf("times:2 fault fired a third time: %v", err)
	}
}

func TestParseProbModifier(t *testing.T) {
	t.Cleanup(Reset)
	Seed(42)
	if err := Parse("core.decode=prob:0.5:error"); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 1000; i++ {
		if Fire(PointCoreDecode) != nil {
			fired++
		}
	}
	if fired < 350 || fired > 650 {
		t.Fatalf("prob:0.5 fired %d/1000 times", fired)
	}
	// Reseeding reproduces the exact sequence.
	Seed(7)
	var seq1 []bool
	for i := 0; i < 50; i++ {
		seq1 = append(seq1, Fire(PointCoreDecode) != nil)
	}
	Seed(7)
	for i, want := range seq1 {
		if got := Fire(PointCoreDecode) != nil; got != want {
			t.Fatalf("firing %d not reproducible after Seed: got %v want %v", i, got, want)
		}
	}
}

func TestParseProbTimesCombined(t *testing.T) {
	t.Cleanup(Reset)
	Seed(3)
	// Misses must not consume the times budget: exactly 2 firings happen
	// even though the probability skips many opportunities.
	if err := Parse("core.decode=prob:0.2:times:2:error"); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 500; i++ {
		if Fire(PointCoreDecode) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("prob+times fired %d times, want exactly 2", fired)
	}
	if Enabled() {
		t.Fatal("point still armed after times budget spent")
	}
}

func TestParseModifierErrors(t *testing.T) {
	t.Cleanup(Reset)
	for _, bad := range []string{
		"core.decode=prob:error",          // prob value missing / not a number
		"core.decode=prob:0:error",        // prob out of range
		"core.decode=prob:1.5:error",      // prob out of range
		"core.decode=times:0:error",       // times < 1
		"core.decode=times:x:error",       // times not a number
		"core.decode=prob:0.5",            // modifier with no mode
		"core.decode=times:3",             // modifier with no mode
		"core.decode=prob:0.5:times:2",    // two modifiers, still no mode
		"core.decode=delay:error",         // delay value not a duration
		"core.decode=delay:-5ms:error",    // negative delay
		"core.decode=delay:10ms",          // delay with no mode (pure latency is sleep:DUR)
		"core.decode=delay:10ms:prob:0.5", // delay+prob, still no mode
	} {
		if err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseDelayModifier proves delay:DUR composes with a failure mode: the
// firing sleeps first, then the mode applies.
func TestParseDelayModifier(t *testing.T) {
	t.Cleanup(Reset)
	if err := Parse("core.decode=delay:30ms:error:slow link down"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	err := Fire(PointCoreDecode)
	if err == nil || !strings.Contains(err.Error(), "slow link down") {
		t.Fatalf("delayed error mode: %v", err)
	}
	if d := time.Since(t0); d < 20*time.Millisecond {
		t.Fatalf("delay:30ms slept only %v before the error", d)
	}
}

// TestParseDelayCorrupt composes wire latency with wire damage — the
// corrupt-slow-link shape the HTTP chaos campaign arms.
func TestParseDelayCorrupt(t *testing.T) {
	t.Cleanup(Reset)
	if err := Parse("shard.net.recv=delay:20ms:corrupt"); err != nil {
		t.Fatal(err)
	}
	data := []byte("response frame on a damaged slow link")
	t0 := time.Now()
	out, err := FireData(PointShardNetRecv, data)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, data) {
		t.Fatal("delay:corrupt did not corrupt")
	}
	if d := time.Since(t0); d < 10*time.Millisecond {
		t.Fatalf("delay:20ms slept only %v", d)
	}
}

// TestParseDelayProbTimes stacks all three modifiers: the delay applies
// only to the firings the probability admits, and the times budget counts
// firings, not opportunities.
func TestParseDelayProbTimes(t *testing.T) {
	t.Cleanup(Reset)
	Seed(11)
	if err := Parse("core.decode=prob:0.5:delay:1ms:times:2:error"); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 200; i++ {
		if Fire(PointCoreDecode) != nil {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("prob+delay+times fired %d times, want exactly 2", fired)
	}
	if Enabled() {
		t.Fatal("point still armed after times budget spent")
	}
}

func TestParseNetPoints(t *testing.T) {
	t.Cleanup(Reset)
	if err := Parse("shard.net.send.1=error:partitioned,shard.net.recv=corrupt"); err != nil {
		t.Fatal(err)
	}
	if err := Fire(PointShardNetSend); err != nil {
		t.Fatalf("shard.net.send fired for the shard.net.send.1 spec: %v", err)
	}
	if err := Fire(PointShardNetSend + ".1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("shard.net.send.1: %v", err)
	}
	out, err := FireData(PointShardNetRecv, []byte("wire frame bytes"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, []byte("wire frame bytes")) {
		t.Fatal("net.recv corrupt did not fire")
	}
}

// TestCorruptWithNonCorruptFault arms a non-corrupt fault at a point whose
// call site uses Corrupt: the data must pass through untouched.
func TestCorruptWithNonCorruptFault(t *testing.T) {
	t.Cleanup(Reset)
	Arm("p", Fault{Err: errors.New("boom")})
	data := []byte("pristine tile bytes")
	if out := Corrupt("p", data); !bytes.Equal(out, data) {
		t.Fatalf("error-mode fault corrupted data at a Corrupt point: %q", out)
	}
	Reset()
	Arm("p", Fault{Delay: time.Millisecond, Times: 1})
	if out := Corrupt("p", data); !bytes.Equal(out, data) {
		t.Fatalf("sleep-mode fault corrupted data: %q", out)
	}
}

// TestArmed: Arm affects only the point it names, and Disarm undoes it.
func TestArmed(t *testing.T) {
	t.Cleanup(Reset)
	Arm(PointShardNetRecv, Fault{Err: errors.New("link down")})
	if err := Fire(PointShardNetSend); err != nil {
		t.Fatalf("neighboring point fired: %v", err)
	}
	if err := Fire(PointShardNetRecv); err == nil {
		t.Fatal("armed point did not fire")
	}
	Disarm(PointShardNetRecv)
	if err := Fire(PointShardNetRecv); err != nil || Enabled() {
		t.Fatalf("still armed after Disarm: %v, enabled %v", err, Enabled())
	}
}

func TestFireDataDisabledIsNoop(t *testing.T) {
	Reset()
	data := []byte("response bytes")
	out, err := FireData(PointShardNetRecv, data)
	if err != nil {
		t.Fatalf("FireData with nothing armed: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("FireData with nothing armed changed data: %q", out)
	}
}

func TestFireDataErrorMode(t *testing.T) {
	t.Cleanup(Reset)
	Arm(PointShardNetRecv, Fault{Err: errors.New("link down"), Times: 1})
	if _, err := FireData(PointShardNetRecv, []byte("x")); err == nil || err.Error() != "link down" {
		t.Fatalf("err = %v, want link down", err)
	}
	// Times budget consumed: the next call passes through.
	out, err := FireData(PointShardNetRecv, []byte("x"))
	if err != nil || string(out) != "x" {
		t.Fatalf("after self-disarm: %q, %v", out, err)
	}
}

func TestFireDataCorruptMode(t *testing.T) {
	t.Cleanup(Reset)
	Arm(PointShardNetRecv, Fault{Corrupt: true})
	data := []byte("a JSON-encoded shard response travelling the wire")
	orig := append([]byte(nil), data...)
	out, err := FireData(PointShardNetRecv, data)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, data) {
		t.Fatal("data not corrupted")
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("input modified in place")
	}
	// Same damage as Corrupt: deterministic offsets, so the two entry
	// points are interchangeable for a given payload.
	if want := Corrupt(PointShardNetRecv, orig); !bytes.Equal(out, want) {
		t.Fatalf("FireData damage %q differs from Corrupt damage %q", out, want)
	}
}

func TestFireDataPanicMode(t *testing.T) {
	t.Cleanup(Reset)
	Arm(PointShardNetSend, Fault{Panic: "wire fire", Times: 1})
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("no panic")
		}
	}()
	FireData(PointShardNetSend, []byte("x"))
}

// TestParseShardPoints: a spec naming a point no call site fires is
// rejected with the point's name, while the per-shard variants of the wire
// points are accepted and fire.
func TestParseShardPoints(t *testing.T) {
	t.Cleanup(Reset)
	for _, bad := range []string{"shard.send=error", "shard.recv.1=corrupt", "core.decode.1=error",
		"shard.net.send.x=error", "shard.net.send.-1=error", "shard.net.send.01=error", "shard.net.send.=error"} {
		point, _, _ := strings.Cut(bad, "=")
		if err := Parse(bad); err == nil || !strings.Contains(err.Error(), strconv.Quote(point)) {
			t.Errorf("Parse(%q) = %v, want an error naming %q", bad, err, point)
		}
	}
	if Enabled() {
		t.Fatal("a rejected spec armed a point")
	}
	if err := Parse("shard.net.send.2=times:2:error:shard unreachable,shard.net.recv.0=corrupt"); err != nil {
		t.Fatal(err)
	}
	if err := Fire(PointShardNetSend + ".2"); !errors.Is(err, ErrInjected) {
		t.Fatalf("shard.net.send.2: %v", err)
	}
	if !strings.Contains(Fire(PointShardNetSend+".2").Error(), "shard unreachable") {
		t.Fatal("error message lost")
	}
	out, err := FireData(PointShardNetRecv+".0", []byte("payload bytes here"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, []byte("payload bytes here")) {
		t.Fatal("recv corrupt did not fire")
	}
}
