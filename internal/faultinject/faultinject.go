// Package faultinject provides gated fault-injection points for resilience
// testing: the storage, ppvp, and core packages call into it at well-known
// points, and tests (or an operator, via the _3DPRO_FAULTS environment
// variable or the server's -faults flag) arm faults at those points to
// simulate corrupt tile bytes, slow decodes, injected errors, and forced
// panics.
//
// When nothing is armed — the production state — every hook reduces to a
// single atomic load, so the injection points are effectively free.
//
// Known points:
//
//	core.decode    — the engine's per-object decode (Fire: error/panic/sleep)
//	ppvp.decode    — progressive mesh decoding (Fire: error/panic/sleep)
//	storage.tile   — the parse of one tile region of a dataset file, once
//	                 per region (Corrupt: bit-flips the region's bytes)
//	shard.net.send — the shard transport's request path, queries, installs
//	                 and health probes alike (error/panic/sleep)
//	shard.net.recv — the shard transport's response path (corrupt mangles
//	                 the body bytes before the CRC check, so the fault
//	                 surfaces exactly as a real flaky link would)
//
// The two shard points also fire as "<point>.N" for shard N. Parse rejects
// any other point name, so a misspelt spec fails instead of arming nothing.
//
// Spec strings (_3DPRO_FAULTS, -faults) are comma-separated point=mode items:
//
//	_3DPRO_FAULTS='ppvp.decode=sleep:50ms,core.decode=panic'
//
// with modes error[:msg], panic[:msg], sleep:duration, and corrupt. A mode
// may be prefixed with modifiers: prob:P (fire with probability P per
// opportunity, 0 < P ≤ 1), times:N (disarm after N firings), and delay:DUR
// (sleep DUR before the mode applies — latency composed with any failure),
// in any order:
//
//	_3DPRO_FAULTS='ppvp.decode=prob:0.05:error,core.decode=times:3:panic'
//	_3DPRO_FAULTS='shard.net.send.2=prob:0.3:delay:20ms:error:flaky link'
//
// Probabilistic faults draw from a package-level RNG seeded with 1; chaos
// campaigns call Seed for reproducible runs.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical injection-point names. Call sites use these constants so tests
// and operators can discover them.
const (
	PointCoreDecode  = "core.decode"
	PointPPVPDecode  = "ppvp.decode"
	PointStorageTile = "storage.tile"
	// Shard-transport fault points, fired by the HTTP transport around the
	// network exchange: net.send before the request leaves the coordinator
	// (delay = link latency, error = blackhole/partition), net.recv on the
	// raw response bytes before the CRC integrity check (corrupt = damaged
	// frame). Both also fire with the per-shard ".N" suffix, so a campaign
	// can partition one worker away while its replicas keep serving.
	PointShardNetSend = "shard.net.send"
	PointShardNetRecv = "shard.net.recv"
)

// EnvVar is the environment variable parsed at process start.
const EnvVar = "_3DPRO_FAULTS"

// ErrInjected is the base error of faults armed in error mode; injected
// errors satisfy errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faultinject: injected fault")

// Fault describes what happens when an armed point fires.
type Fault struct {
	// Delay, if positive, makes the firing sleep first.
	Delay time.Duration
	// Err, if non-nil, is returned by Fire.
	Err error
	// Panic, if non-empty, makes the firing panic with this message.
	Panic string
	// Corrupt makes Corrupt flip bytes of the data passing through.
	Corrupt bool
	// Hook, if non-nil, is called by Fire after Delay and before
	// Panic/Err are applied; it may block (tests use this to hold a
	// request inside the engine deterministically). A non-nil return
	// short-circuits Fire.
	Hook func() error
	// Times bounds how often the fault fires; 0 means unlimited. The
	// point disarms itself after the last firing.
	Times int
	// Prob, when in (0, 1), makes each opportunity fire with that
	// probability (an opportunity that does not fire consumes no Times
	// budget). 0 (or ≥ 1) fires every time.
	Prob float64
}

var (
	armed  atomic.Int32 // number of armed points; the fast-path gate
	mu     sync.Mutex
	points map[string]*state
	rng    = rand.New(rand.NewSource(1)) // guarded by mu
)

// Seed reseeds the RNG behind probabilistic faults, making a chaos campaign
// reproducible.
func Seed(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	rng = rand.New(rand.NewSource(seed))
}

type state struct {
	f    Fault
	left int
}

// Enabled reports whether any point is armed. Call sites may use it to skip
// preparing arguments for a hook; the hooks themselves are already gated.
func Enabled() bool { return armed.Load() > 0 }

// Arm installs (or replaces) the fault at a point.
func Arm(point string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*state)
	}
	if _, ok := points[point]; !ok {
		armed.Add(1)
	}
	points[point] = &state{f: f, left: f.Times}
}

// Disarm removes the fault at a point, if any.
func Disarm(point string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[point]; ok {
		delete(points, point)
		armed.Add(-1)
	}
}

// Reset disarms every point.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(points)))
	points = nil
}

// take consumes one firing of the fault at point, disarming it when its
// Times budget runs out. Probabilistic faults roll the RNG first: a roll
// that does not fire leaves the Times budget untouched.
func take(point string) (Fault, bool) {
	mu.Lock()
	defer mu.Unlock()
	st, ok := points[point]
	if !ok {
		return Fault{}, false
	}
	if st.f.Prob > 0 && st.f.Prob < 1 && rng.Float64() >= st.f.Prob {
		return Fault{}, false
	}
	if st.f.Times > 0 {
		st.left--
		if st.left <= 0 {
			delete(points, point)
			armed.Add(-1)
		}
	}
	return st.f, true
}

// Fire triggers the fault armed at point: it sleeps Delay, runs Hook,
// panics if Panic is set, and returns Err. With nothing armed it is a
// single atomic load.
func Fire(point string) error {
	if armed.Load() == 0 {
		return nil
	}
	f, ok := take(point)
	if !ok {
		return nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Hook != nil {
		if err := f.Hook(); err != nil {
			return err
		}
	}
	if f.Panic != "" {
		panic("faultinject: " + f.Panic)
	}
	return f.Err
}

// FireData combines Fire and Corrupt for points where both error-style and
// data-corruption faults make sense (the shard transport's receive path):
// it sleeps Delay, runs Hook, panics if Panic is set, returns Err if set,
// and otherwise passes data through a Corrupt fault's bit-flipper. With
// nothing armed it returns (data, nil) after a single atomic load.
func FireData(point string, data []byte) ([]byte, error) {
	if armed.Load() == 0 {
		return data, nil
	}
	f, ok := take(point)
	if !ok {
		return data, nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Hook != nil {
		if err := f.Hook(); err != nil {
			return data, err
		}
	}
	if f.Panic != "" {
		panic("faultinject: " + f.Panic)
	}
	if f.Err != nil {
		return data, f.Err
	}
	if !f.Corrupt || len(data) == 0 {
		return data, nil
	}
	return flipBytes(data), nil
}

// Corrupt passes data through the fault armed at point: a Corrupt fault
// returns a bit-flipped copy (the input is never modified); Panic and Delay
// apply as in Fire. With nothing armed it returns data untouched after a
// single atomic load.
func Corrupt(point string, data []byte) []byte {
	if armed.Load() == 0 {
		return data
	}
	f, ok := take(point)
	if !ok {
		return data
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Panic != "" {
		panic("faultinject: " + f.Panic)
	}
	if !f.Corrupt || len(data) == 0 {
		return data
	}
	return flipBytes(data)
}

// flipBytes returns a bit-flipped copy of data (the input is never
// modified). Deterministic damage: flip bytes at a few interior offsets,
// enough to defeat any checksum without depending on a RNG.
func flipBytes(data []byte) []byte {
	out := append([]byte(nil), data...)
	for _, at := range []int{len(out) / 4, len(out) / 2, 3 * len(out) / 4} {
		out[at] ^= 0x5A
	}
	return out
}

// knownPoint reports whether some call site fires point: one of the Point*
// constants, or a shard point's per-shard variant "<point>.N".
func knownPoint(point string) bool {
	switch point {
	case PointCoreDecode, PointPPVPDecode, PointStorageTile, PointShardNetSend, PointShardNetRecv:
		return true
	}
	for _, base := range []string{PointShardNetSend, PointShardNetRecv} {
		if n, ok := strings.CutPrefix(point, base+"."); ok {
			i, err := strconv.Atoi(n)
			return err == nil && i >= 0 && strconv.Itoa(i) == n
		}
	}
	return false
}

// Parse arms faults from a spec string: comma-separated point=mode items,
// where mode is error[:msg], panic[:msg], sleep:duration, or corrupt,
// optionally prefixed by prob:P and/or times:N modifiers. A point no call
// site fires is an error; Arm, which tests use, takes any name.
func Parse(spec string) error {
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		point, mode, ok := strings.Cut(item, "=")
		if !ok || point == "" {
			return fmt.Errorf("faultinject: bad spec item %q, want point=mode", item)
		}
		if !knownPoint(point) {
			return fmt.Errorf("faultinject: unknown point %q in %q, want %s, %s, %s, %s[.N] or %s[.N]", point, item,
				PointCoreDecode, PointPPVPDecode, PointStorageTile, PointShardNetSend, PointShardNetRecv)
		}
		var f Fault
		// Strip leading prob:/times:/delay: modifiers; what remains is the
		// verb.
		for {
			verb, rest, _ := strings.Cut(mode, ":")
			if verb != "prob" && verb != "times" && verb != "delay" {
				break
			}
			val, rest2, ok := strings.Cut(rest, ":")
			if !ok {
				// `prob:0.5` with nothing after the value: the value is
				// the whole rest and no verb remains.
				val, rest2 = rest, ""
			}
			switch verb {
			case "prob":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p <= 0 || p > 1 {
					return fmt.Errorf("faultinject: bad prob %q in %q, want (0,1]", val, item)
				}
				f.Prob = p
			case "times":
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return fmt.Errorf("faultinject: bad times %q in %q, want ≥ 1", val, item)
				}
				f.Times = n
			case "delay":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return fmt.Errorf("faultinject: bad delay %q in %q, want a non-negative duration", val, item)
				}
				f.Delay = d
			}
			mode = rest2
		}
		if mode == "" {
			return fmt.Errorf("faultinject: missing mode in %q (modifiers need a mode, e.g. prob:0.1:error)", item)
		}
		verb, arg, _ := strings.Cut(mode, ":")
		switch verb {
		case "error":
			if arg == "" {
				arg = point
			}
			f.Err = fmt.Errorf("%w: %s", ErrInjected, arg)
		case "panic":
			if arg == "" {
				arg = "injected panic at " + point
			}
			f.Panic = arg
		case "sleep":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return fmt.Errorf("faultinject: bad sleep duration in %q: %v", item, err)
			}
			f.Delay = d
		case "corrupt":
			f.Corrupt = true
		default:
			return fmt.Errorf("faultinject: unknown mode %q in %q", verb, item)
		}
		Arm(point, f)
	}
	return nil
}

func init() {
	if spec := os.Getenv(EnvVar); spec != "" {
		if err := Parse(spec); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v (ignored)\n", EnvVar, err)
		}
	}
}
