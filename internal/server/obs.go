package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/shard"
)

// queryLogCapacity bounds the /debug/queries ring buffer.
const queryLogCapacity = 256

// serverObs bundles the server's observability state: the Prometheus
// registry behind /metrics, the per-query counters the handlers feed, and
// the /debug/queries ring buffer.
type serverObs struct {
	reg *obs.Registry

	queriesTotal  *obs.CounterVec // kind, status
	queryDuration *obs.HistogramVec
	decodeRounds  *obs.Histogram
	admissionRej  *obs.Counter
	// totals holds threedpro_query_<name>_total by core.Counters name.
	totals map[string]*obs.Counter

	queryLog *obs.QueryLog
}

// initObs builds the metric families. Engine-lifetime counters (cache,
// quarantine) are sampled at scrape time through Counter/GaugeFuncs rather
// than double-counted per query; the query families aggregate the exact
// per-query stats the engine attributes. Sharded servers trade the engine
// families for the threedpro_shard_* families sampled off the coordinator.
func (s *Server) initObs() {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg: reg,
		queriesTotal: reg.CounterVec("threedpro_queries_total",
			"Queries served, by query kind and outcome status.", "kind", "status"),
		queryDuration: reg.HistogramVec("threedpro_query_duration_seconds",
			"Query wall-clock latency by kind.", obs.DurationBuckets, "kind"),
		decodeRounds: reg.Histogram("threedpro_query_decode_rounds",
			"Decode rounds replayed per query.", obs.RoundBuckets),
		admissionRej: reg.Counter("threedpro_admission_rejected_total",
			"Query requests shed by admission control."),
		totals:   make(map[string]*obs.Counter, len(core.Counters)),
		queryLog: obs.NewQueryLog(queryLogCapacity),
	}
	for _, c := range core.Counters {
		o.totals[c.Name] = reg.Counter("threedpro_query_"+c.Name+"_total",
			"The per-query stats."+c.Name+" summed over served queries (phase times in milliseconds).")
	}
	reg.GaugeFunc("threedpro_queries_inflight",
		"Query requests currently admitted.", func() float64 { return float64(len(s.inflight)) })

	if s.coord != nil {
		s.initShardObs(reg)
	}
	if s.eng == nil {
		s.obs = o
		return
	}

	cache := s.eng.Cache()
	reg.CounterFunc("threedpro_cache_hits_total",
		"Decode-cache hits.", func() float64 { return float64(cache.Stats().Hits) })
	reg.CounterFunc("threedpro_cache_misses_total",
		"Decode-cache misses.", func() float64 { return float64(cache.Stats().Misses) })
	reg.CounterFunc("threedpro_cache_evictions_total",
		"Decode-cache evictions.", func() float64 { return float64(cache.Stats().Evictions) })
	reg.CounterFunc("threedpro_cache_warm_starts_total",
		"Cache misses served from decoded geometry the cache held (a warm point or a resident lower LOD).",
		func() float64 { return float64(cache.Stats().WarmStarts) })
	reg.CounterFunc("threedpro_cache_rounds_applied_total",
		"Decode rounds actually replayed by cache misses.",
		func() float64 { return float64(cache.Stats().RoundsApplied) })
	reg.CounterFunc("threedpro_cache_rounds_skipped_total",
		"Decode rounds warm starts did not replay.",
		func() float64 { return float64(cache.Stats().RoundsSkipped) })
	reg.CounterFunc("threedpro_cache_decode_failures_total",
		"Miss-path decodes that returned an error or panicked.",
		func() float64 { return float64(cache.Stats().DecodeFailures) })
	reg.GaugeFunc("threedpro_cache_bytes_used",
		"Estimated bytes of decoded meshes held by the cache.",
		func() float64 { return float64(cache.Stats().BytesUsed) })
	reg.GaugeFunc("threedpro_cache_warm_bytes",
		"Part of the cache's bytes charged to warm points whose entry has left.",
		func() float64 { return float64(cache.Stats().WarmBytes) })

	quar := s.eng.Quarantine()
	reg.GaugeFunc("threedpro_quarantine_open",
		"Objects whose circuit breaker is currently open.",
		func() float64 { return float64(quar.Stats().Open) })
	reg.GaugeFunc("threedpro_quarantine_half_open",
		"Objects currently admitting a half-open probe.",
		func() float64 { return float64(quar.Stats().HalfOpen) })
	reg.GaugeFunc("threedpro_quarantine_tracked",
		"Objects with breaker records (including closed ones).",
		func() float64 { return float64(quar.Stats().Tracked) })
	reg.CounterFunc("threedpro_quarantine_trips_total",
		"Closed-to-open breaker transitions.", func() float64 { return float64(quar.Stats().Trips) })
	reg.CounterFunc("threedpro_quarantine_failures_total",
		"Recorded per-object decode failures.", func() float64 { return float64(quar.Stats().Failures) })
	reg.CounterFunc("threedpro_quarantine_skips_total",
		"Decode requests refused because the object's breaker was open.",
		func() float64 { return float64(quar.Stats().Skips) })
	reg.CounterFunc("threedpro_quarantine_reinstated_total",
		"Successful probes that closed a breaker again.",
		func() float64 { return float64(quar.Stats().Reinstated) })

	s.obs = o
}

// initShardObs registers the threedpro_shard_* families, sampled off the
// coordinator's counters at scrape time.
func (s *Server) initShardObs(reg *obs.Registry) {
	coord := s.coord
	reg.GaugeFunc("threedpro_shards",
		"Configured shard count.", func() float64 { return float64(coord.Shards()) })
	reg.GaugeFunc("threedpro_shard_breakers_open",
		"Shards whose circuit breaker is currently open or half-open.",
		func() float64 { return float64(coord.Breaker().Len()) })
	reg.CounterFunc("threedpro_shard_queries_total",
		"Queries coordinated across the shard tier.",
		func() float64 { return float64(coord.Metrics().Queries) })
	reg.CounterFunc("threedpro_shard_degraded_queries_total",
		"Coordinated queries that lost at least one shard and returned a degraded answer.",
		func() float64 { return float64(coord.Metrics().DegradedQueries) })
	reg.CounterFunc("threedpro_shard_calls_total",
		"Transport attempts to shards (retries and hedges included).",
		func() float64 { return float64(coord.Metrics().ShardCalls) })
	reg.CounterFunc("threedpro_shard_retries_total",
		"Shard-call retries after transient transport failures.",
		func() float64 { return float64(coord.Metrics().Retries) })
	reg.CounterFunc("threedpro_shard_hedges_total",
		"Hedge attempts launched against straggling shards.",
		func() float64 { return float64(coord.Metrics().Hedges) })
	reg.CounterFunc("threedpro_shard_hedge_wins_total",
		"Hedge attempts whose response was accepted.",
		func() float64 { return float64(coord.Metrics().HedgeWins) })
	reg.CounterFunc("threedpro_shard_errors_total",
		"Shard calls that exhausted every attempt.",
		func() float64 { return float64(coord.Metrics().ShardErrors) })
	reg.CounterFunc("threedpro_shard_open_skips_total",
		"Shard calls refused outright by an open breaker.",
		func() float64 { return float64(coord.Metrics().OpenSkips) })
	reg.GaugeFunc("threedpro_shard_replicas",
		"Configured replication factor (shards per home group).",
		func() float64 { return float64(coord.Replicas()) })
	reg.CounterFunc("threedpro_shard_failover_total",
		"Replica-chain advances past a failed or breaker-open replica.",
		func() float64 { return float64(coord.Metrics().Failovers) })
	reg.CounterFunc("threedpro_shard_failover_wins_total",
		"Failovers whose replica produced the accepted answer.",
		func() float64 { return float64(coord.Metrics().FailoverWins) })
	reg.CounterFunc("threedpro_shard_prober_probes_total",
		"Active health probes issued by the background prober.",
		func() float64 { return float64(coord.Metrics().Probes) })
	reg.CounterFunc("threedpro_shard_prober_recoveries_total",
		"Prober probes whose success released a shard breaker.",
		func() float64 { return float64(coord.Metrics().ProbeRecoveries) })
	reg.CounterFunc("threedpro_shard_prober_failures_total",
		"Prober probes that failed and re-opened the breaker.",
		func() float64 { return float64(coord.Metrics().ProbeFailures) })
}

// noteQuery records one executed query (one that reached the engine) into
// the metric families and the /debug/queries ring. st is never nil: even
// aborted queries hand back their statistics.
func (s *Server) noteQuery(r *http.Request, kind string, st *core.Stats, err error) {
	status := "ok"
	errMsg := ""
	if err != nil {
		status = "error"
		errMsg = firstLine(err.Error())
	}
	s.obs.queriesTotal.With(kind, status).Inc()
	s.obs.queryDuration.With(kind).Observe(st.Elapsed.Seconds())
	s.obs.decodeRounds.Observe(float64(st.RoundsApplied))
	for _, c := range core.Counters {
		s.obs.totals[c.Name].Add(c.Value(st))
	}

	s.obs.queryLog.Record(obs.QuerySummary{
		ID:             requestID(r),
		Kind:           kind,
		Start:          time.Now().Add(-st.Elapsed),
		ElapsedMS:      float64(st.Elapsed) / float64(time.Millisecond),
		Status:         status,
		Error:          errMsg,
		Candidates:     st.Candidates,
		Results:        st.Results,
		Decodes:        st.Decodes,
		CacheHits:      st.CacheHits,
		WarmStarts:     st.WarmStarts,
		DecodeFailures: st.DecodeFailures,
		Degraded:       len(st.Degraded),
		Trace:          st.Trace,
	})
}

// handleDebugQueries serves the ring buffer of recent query summaries,
// newest first.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]any{
		"total":   s.obs.queryLog.Total(),
		"queries": s.obs.queryLog.Snapshot(),
	})
}

// ridKey is the context key the request-ID middleware stores the ID under.
type ridKey struct{}

// requestID returns the request's assigned ID ("" outside the middleware).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(ridKey{}).(string)
	return id
}

// newRequestID mints a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000deadbeef"
	}
	return hex.EncodeToString(b[:])
}

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument assigns every request an ID (honoring an incoming
// X-Request-ID), echoes it on the response, and emits one structured access
// log line per request with the ID, method, path, status, and latency, so a
// query's scatter legs can be correlated across the worker fleet.
func (k *httpSkeleton) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		if k.ridInCtx {
			// The shard-side copy rides outgoing worker calls (HTTP
			// transport) so one query's scatter legs correlate across
			// process logs.
			r = r.WithContext(shard.WithRequestID(
				context.WithValue(r.Context(), ridKey{}, id), id))
		}
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		k.slog.LogAttrs(r.Context(), slog.LevelInfo, k.accessMsg,
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("elapsed", time.Since(start)),
		)
	})
}

// firstLine truncates a message at its first newline (panic values carry
// stack traces).
func firstLine(msg string) string {
	for i := 0; i < len(msg); i++ {
		if msg[i] == '\n' {
			return msg[:i]
		}
	}
	return msg
}
