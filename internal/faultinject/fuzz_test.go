package faultinject

import (
	"strings"
	"testing"
	"time"
)

// FuzzParse throws arbitrary spec strings at the fault grammar. Invariants:
// Parse never panics, a rejected spec arms nothing beyond what earlier
// (valid) items already armed, and every point it arms is one a call site
// fires. Sleep-class values are capped by construction of the corpus, not
// the fuzzer, so Fire is never called here — only the parser runs.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"core.decode=error",
		"ppvp.decode=sleep:50ms,core.decode=panic",
		"shard.send=times:2:error:shard unreachable,shard.recv=corrupt",
		"shard.net.send.2=prob:0.3:delay:20ms:error:flaky link",
		"shard.net.recv=delay:5ms:corrupt",
		"core.decode=prob:0.05:times:3:panic:oh no",
		"core.decode=delay:10ms",
		"core.decode=prob:1.5:error",
		"core.decode=times:0:error",
		"core.decode=delay:-1ms:error",
		"core.decode=launch",
		"noequals",
		" core.decode=error , , storage.tile=corrupt ",
		"=error",
		"core.decode=prob:0.5:times:2",
		"core.decode=delay:9999h:error",
		"core.decode=sleep:fast",
		strings.Repeat("ppvp.decode=error,", 64),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		defer Reset()
		err := Parse(spec)
		mu.Lock()
		n := len(points)
		var totalDelay time.Duration
		for p, st := range points {
			if !knownPoint(p) {
				t.Errorf("Parse(%q) armed %q, which no call site fires", spec, p)
			}
			if st.f.Delay < 0 {
				t.Errorf("Parse(%q) armed a negative delay %v", spec, st.f.Delay)
			}
			totalDelay += st.f.Delay
			if st.f.Prob < 0 || st.f.Prob > 1 {
				t.Errorf("Parse(%q) armed prob %v outside [0,1]", spec, st.f.Prob)
			}
			if st.f.Times < 0 {
				t.Errorf("Parse(%q) armed negative times %d", spec, st.f.Times)
			}
		}
		mu.Unlock()
		_ = totalDelay
		if err == nil && n == 0 && strings.ContainsRune(spec, '=') {
			// Accepted a spec with an item shape yet armed nothing: fine
			// only when every item was blank/whitespace.
			for _, item := range strings.Split(spec, ",") {
				if strings.TrimSpace(item) != "" {
					t.Errorf("Parse(%q) accepted non-blank items but armed nothing", spec)
					break
				}
			}
		}
		if int(armed.Load()) != n {
			t.Errorf("Parse(%q): armed count %d != points %d", spec, armed.Load(), n)
		}
	})
}
