package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// span is one interval of the traced run. All spans are recorded by the
// harness: around its own calls (op, http.client, core.build, storage.save,
// core.load) or rebuilt from what the call returned — the elapsed times in
// core.Stats and ShardStat, and the phase events QueryOptions.Trace yields.
// A rebuilt span is anchored at its parent's start, since only its length
// is known.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the trace, -1 for an op
	Op     int    `json:"op_id"`
	// Busy is set on a query phase, whose span is the window in which the
	// query's workers were in that phase and Busy the time they spent there
	// summed over workers.
	Busy int64 `json:"busy_ns,omitempty"`
}

// tracer collects one client's spans in memory. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	spans  []span
	op     int
}

func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := start.Sub(t.origin).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

// addQuery records the spans one engine or coordinator call reported about
// itself: shard.coord → shard.leg.<i> → core.query → core.filter|decode|geom
// for a scattered query, core.query → phases for a single engine.
func (t *tracer) addQuery(parent int, start time.Time, st *core.Stats) {
	if t == nil || st == nil {
		return
	}
	if len(st.Shards) == 0 {
		t.addEngineQuery(parent, start, st)
		return
	}
	coord := t.add("shard.coord", parent, start, st.Elapsed)
	for _, leg := range st.Shards {
		if leg.Stats == nil {
			continue
		}
		l := t.add("shard.leg."+strconv.Itoa(leg.Shard), coord, start, leg.Elapsed)
		t.addEngineQuery(l, start, leg.Stats)
	}
}

func (t *tracer) addEngineQuery(parent int, start time.Time, st *core.Stats) {
	q := t.add("core.query", parent, start, st.Elapsed)
	type window struct{ first, last, busy int64 }
	phases := map[string]*window{}
	for _, ev := range st.Trace {
		if ev.Name != "filter" && ev.Name != "decode" && ev.Name != "geom" {
			continue // cache_hit, evaluate and settle are counts, not time
		}
		w, ok := phases[ev.Name]
		if !ok {
			w = &window{first: ev.FirstUS, last: ev.LastUS}
			phases[ev.Name] = w
		}
		w.first = min(w.first, ev.FirstUS)
		w.last = max(w.last, ev.LastUS)
		w.busy += ev.TotalUS
	}
	for _, name := range []string{"filter", "decode", "geom"} {
		if w, ok := phases[name]; ok {
			i := t.add("core."+name, q, start.Add(time.Duration(w.first)*time.Microsecond),
				time.Duration(w.last-w.first)*time.Microsecond)
			t.spans[i].Busy = w.busy*1000 + 1 // never 0: Busy marks a phase
		}
	}
}

// selfTimes returns each span's self time: its length minus the part of it
// that its children cover. Children may overlap each other (parallel shard
// legs, concurrent phases), so coverage is the union of their intervals
// clipped to the parent. Phase children (Busy set) are windows, not
// exclusive intervals: the time they cover together is divided among them
// in proportion to their busy time.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.Busy > 0 {
			continue // assigned by its parent below
		}
		self[i] = (s.End - s.Start) - coverage(spans, children[i], s.Start, s.End)
		var phases []int
		var busy float64
		for _, c := range children[i] {
			if spans[c].Busy > 0 {
				phases = append(phases, c)
				busy += float64(spans[c].Busy)
			}
		}
		covered := float64(coverage(spans, phases, s.Start, s.End))
		for _, c := range phases {
			self[c] = int64(covered * float64(spans[c].Busy) / busy)
		}
	}
	return self
}

// coverage is the length of the union of the indexed spans, clipped to
// [lo, hi].
func coverage(spans []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, c := range idx {
		a, b := max(spans[c].Start, lo), min(spans[c].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total int64
	end := lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// layerOf maps a span name to its layer: shard.leg.0 and shard.leg.1 are
// both the shard.leg layer.
func layerOf(name string) string {
	if strings.HasPrefix(name, "shard.leg.") {
		return "shard.leg"
	}
	return name
}

// selfShares sums self time per layer and returns each layer's share of all
// self time recorded, and the self time of the op spans: what the harness
// itself spends per op outside the calls it traces.
func selfShares(spans []span) (shares map[string]float64, opSelf time.Duration) {
	self := selfTimes(spans)
	byLayer := map[string]int64{}
	var total int64
	for i, s := range spans {
		byLayer[layerOf(s.Name)] += self[i]
		total += self[i]
	}
	shares = make(map[string]float64, len(byLayer))
	for l, v := range byLayer {
		if total > 0 {
			shares[l] = float64(v) / float64(total)
		}
	}
	return shares, time.Duration(byLayer["op"])
}

// mergeTraces joins the per-client traces into one, re-basing parent
// indexes and op ids.
func mergeTraces(ts []*tracer) []span {
	var out []span
	ops := 0
	for _, t := range ts {
		base := len(out)
		for _, s := range t.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			s.Op += ops
			out = append(out, s)
		}
		ops += t.op
	}
	return out
}

func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), blob, 0o644)
}
