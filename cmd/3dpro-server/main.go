// Command 3dpro-server serves 3DPro spatial queries over HTTP.
//
// Datasets come from persisted dataset directories (see `3dpro ingest`) via
// repeated -dataset flags, or -demo loads a synthetic tissue sample:
//
//	3dpro-server -addr :8080 -dataset nuclei=./nuclei-ds -dataset vessels=./vessel-ds
//	3dpro-server -demo
//
// The server runs hardened for production: per-query deadlines
// (-query-timeout), admission control (-max-inflight), request body limits
// (-max-body-bytes), /healthz, /readyz, and /statusz probes, per-request
// panic isolation, and graceful draining on SIGINT/SIGTERM
// (-shutdown-grace). Observability: /metrics serves Prometheus text,
// /debug/queries the recent-query ring, -pprof mounts the profiling
// endpoints (do not expose them to untrusted clients), and -log-format
// selects text or json structured access logs.
// -salvage loads damaged dataset directories in salvage
// mode (undamaged objects survive, the rest are quarantined);
// -quarantine-threshold and -quarantine-cooldown tune the per-object
// circuit breaker. Fault injection for resilience testing is available via
// -faults or the _3DPRO_FAULTS environment variable (see
// internal/faultinject).
//
// -shards N (N > 1) serves through the degrade-aware sharded tier
// (internal/shard): objects are space-partitioned across N shard workers,
// which this process starts on loopback ports, and every query is
// scatter-gathered over HTTP with per-shard retries (-shard-retries,
// -shard-retry-backoff), optional hedging (-shard-hedge-after), per-attempt
// deadlines (-shard-attempt-timeout), and a per-shard circuit breaker
// (-shard-breaker-threshold, -shard-breaker-cooldown). A dead shard
// degrades Degrade-policy queries (its objects are reported uncertain)
// instead of failing them. On shutdown the front drains first, then the
// workers behind it.
//
// Multi-process serving splits the tier across processes. Each shard runs
// as a worker:
//
//	3dpro-server -shard-worker -listen 127.0.0.1:7801
//
// and the frontend coordinates them over HTTP with replicated placement
// (-replicas copies of every home group, so killing any single worker
// still yields exact answers via failover) and an active health prober
// (-shard-probe-interval) that rejoins restarted workers without risking
// query traffic:
//
//	3dpro-server -shards 2 -replicas 2 \
//	    -shard-workers http://127.0.0.1:7801,http://127.0.0.1:7802 -demo
//
// See internal/server for the API and DESIGN.md §13 for the placement and
// failover semantics.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
)

type datasetFlags []string

func (d *datasetFlags) String() string     { return strings.Join(*d, ",") }
func (d *datasetFlags) Set(v string) error { *d = append(*d, v); return nil }

func main() {
	var datasets datasetFlags
	addr := flag.String("addr", "127.0.0.1:7333", "listen address")
	demo := flag.Bool("demo", false, "load a synthetic tissue demo (datasets 'nuclei' and 'vessels')")
	queryTimeout := flag.Duration("query-timeout", 30*time.Second, "per-query deadline (0 disables)")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrently admitted queries (default 2×GOMAXPROCS)")
	maxBodyBytes := flag.Int64("max-body-bytes", 1<<20, "request body size limit in bytes")
	shutdownGrace := flag.Duration("shutdown-grace", 15*time.Second, "drain allowance on SIGINT/SIGTERM")
	faults := flag.String("faults", "", "fault-injection spec, e.g. 'ppvp.decode=sleep:50ms' (also env "+faultinject.EnvVar+")")
	salvage := flag.Bool("salvage", false, "load -dataset directories in salvage mode: skip and quarantine damaged objects instead of refusing the dataset")
	quarThreshold := flag.Int("quarantine-threshold", 0, "decode failures before an object is quarantined (default 3)")
	quarCooldown := flag.Duration("quarantine-cooldown", 0, "how long a quarantined object stays blocked before a probe is admitted (default 30s)")
	shards := flag.Int("shards", 1, "serve through N loopback shard workers with a degrade-aware coordinator (1 = single engine)")
	replicas := flag.Int("replicas", 2, "shards storing each home group in multi-process mode (failover tolerates replicas-1 dead workers per group; -shards N without -shard-workers defaults to 1)")
	shardWorkers := flag.String("shard-workers", "", "comma-separated worker base URLs; serve through these worker processes instead of loopback workers")
	shardProbeInterval := flag.Duration("shard-probe-interval", 2*time.Second, "background health-probe interval for tripped shard breakers (0 disables the prober)")
	shardWorker := flag.Bool("shard-worker", false, "run as a shard worker process serving the shard protocol on -listen")
	listen := flag.String("listen", "127.0.0.1:7800", "worker listen address (with -shard-worker)")
	shardRetries := flag.Int("shard-retries", 0, "transport retries per shard call (default 2, negative disables)")
	shardBackoff := flag.Duration("shard-retry-backoff", 0, "initial retry backoff, doubling with jitter (default 5ms)")
	shardHedgeAfter := flag.Duration("shard-hedge-after", 0, "hedge a shard call with a second attempt after this delay (0 = off)")
	shardAttemptTimeout := flag.Duration("shard-attempt-timeout", 0, "per-attempt shard deadline, always capped by the query deadline (0 = query deadline only)")
	shardBreakerThreshold := flag.Int("shard-breaker-threshold", 0, "consecutive failures before a shard's circuit breaker opens (default 3)")
	shardBreakerCooldown := flag.Duration("shard-breaker-cooldown", 0, "how long an open shard breaker blocks calls before a probe (default 30s)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes memory contents; keep off on untrusted networks)")
	logFormat := flag.String("log-format", "text", "structured access-log format: text or json")
	flag.Var(&datasets, "dataset", "name=dir of a persisted dataset (repeatable)")
	flag.Parse()

	var slogger *slog.Logger
	switch *logFormat {
	case "text":
		slogger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		slogger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		log.Fatalf("bad -log-format %q, want text or json", *logFormat)
	}

	if *faults != "" {
		if err := faultinject.Parse(*faults); err != nil {
			log.Fatal(err)
		}
	}

	cfg := server.Config{
		QueryTimeout:  *queryTimeout,
		MaxInFlight:   *maxInFlight,
		MaxBodyBytes:  *maxBodyBytes,
		ShutdownGrace: *shutdownGrace,
		Slog:          slogger,
		EnablePprof:   *enablePprof,
	}
	if *queryTimeout == 0 {
		cfg.QueryTimeout = -1 // flag 0 = disabled; Config 0 = default
	}

	engOpts := core.EngineOptions{
		QuarantineThreshold: *quarThreshold,
		QuarantineCooldown:  *quarCooldown,
	}

	if *shardWorker {
		node := shard.NewNode(0, engOpts)
		defer node.Close()
		w := server.NewWorker(node, cfg)
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		log.Printf("3dpro-server shard worker listening on http://%s", *listen)
		if err := w.Run(ctx, *listen); err != nil {
			log.Fatal(err)
		}
		log.Printf("3dpro-server: worker clean shutdown")
		return
	}

	// The loader engine builds/loads datasets; in sharded mode the queries
	// run on the coordinator's per-shard engines instead.
	eng := core.NewEngine(engOpts)
	defer eng.Close()

	// The -replicas default (2) targets multi-process serving, where a dead
	// worker is an expected event; plain -shards N keeps single-copy
	// placement on its loopback workers unless -replicas is set explicitly.
	replicasSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "replicas" {
			replicasSet = true
		}
	})

	shardOpts := shard.Options{
		Retries:          *shardRetries,
		RetryBackoff:     *shardBackoff,
		HedgeAfter:       *shardHedgeAfter,
		AttemptTimeout:   *shardAttemptTimeout,
		BreakerThreshold: *shardBreakerThreshold,
		BreakerCooldown:  *shardBreakerCooldown,
	}

	var addrs []string
	var stopWorkers func() error
	switch {
	case *shardWorkers != "":
		addrs = strings.Split(*shardWorkers, ",")
		for i := range addrs {
			addrs[i] = strings.TrimSpace(addrs[i])
		}
		if *shards > 1 && *shards != len(addrs) {
			log.Fatalf("-shards %d disagrees with the %d -shard-workers URLs; drop -shards or make them match", *shards, len(addrs))
		}
		shardOpts.Replicas = *replicas
	case *shards > 1:
		var err error
		if addrs, stopWorkers, err = startLoopbackWorkers(*shards, engOpts, cfg); err != nil {
			log.Fatal(err)
		}
		if replicasSet {
			shardOpts.Replicas = *replicas
		}
	}

	var srv *server.Server
	if addrs != nil {
		tr := shard.NewHTTPTransport(addrs)
		defer tr.Close()
		shardOpts.Shards = len(addrs)
		coord := shard.NewWithTransport(tr, shardOpts)
		defer coord.Close()
		coord.StartProber(*shardProbeInterval)
		srv = server.NewSharded(coord, cfg)
		log.Printf("sharded serving enabled: %d workers over HTTP, %d replicas per group", len(addrs), coord.Replicas())
	} else {
		srv = server.NewWithConfig(eng, cfg)
	}

	loaded := 0
	for _, spec := range datasets {
		name, dir, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("bad -dataset %q, want name=dir", spec)
		}
		var d *core.Dataset
		var err error
		if *salvage {
			var rep *storage.SalvageReport
			d, rep, err = eng.LoadDatasetSalvage(dir)
			if err != nil {
				log.Fatalf("salvage-loading %s: %v", dir, err)
			}
			if !rep.Clean() {
				log.Printf("salvaged %s: %d objects loaded, %d tiles skipped, %d objects dropped (quarantined)",
					dir, rep.ObjectsLoaded, len(rep.TilesSkipped), len(rep.ObjectsDropped))
				for _, dr := range rep.ObjectsDropped {
					log.Printf("  dropped object %d: %s", dr.ID, dr.Reason)
				}
			}
		} else {
			d, err = eng.LoadDataset(dir)
			if err != nil {
				log.Fatalf("loading %s: %v (is the directory damaged? try -salvage)", dir, err)
			}
		}
		d.Name = name
		if err := srv.AddDataset(d); err != nil {
			log.Fatalf("registering %s: %v", name, err)
		}
		log.Printf("loaded dataset %q: %d objects, %d LODs", name, d.Len(), d.MaxLOD()+1)
		loaded++
	}
	if *demo {
		nuclei, vessels := datagen.Tissue(datagen.TissueOptions{
			Nuclei:  datagen.NucleiOptions{Count: 64, Seed: 1},
			Vessels: datagen.VesselOptions{Count: 4, Seed: 2},
		})
		dn, err := eng.BuildDataset("nuclei", nuclei, core.DatasetOptions{})
		if err != nil {
			log.Fatal(err)
		}
		dv, err := eng.BuildDataset("vessels", vessels, core.DatasetOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if err := srv.AddDataset(dn); err != nil {
			log.Fatal(err)
		}
		if err := srv.AddDataset(dv); err != nil {
			log.Fatal(err)
		}
		log.Printf("demo tissue loaded: %d nuclei, %d vessels", dn.Len(), dv.Len())
		loaded += 2
	}
	if loaded == 0 {
		log.Fatal("no datasets: pass -dataset name=dir or -demo")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("3dpro-server listening on http://%s", *addr)
	if err := serveFront(ctx, srv, *addr, stopWorkers); err != nil {
		log.Fatal(err)
	}
	log.Printf("3dpro-server: clean shutdown")
}

// startLoopbackWorkers starts n shard workers on 127.0.0.1 ports, each
// serving a node with its own engine, and returns their base URLs and a
// stop function that drains them and releases their nodes.
func startLoopbackWorkers(n int, engOpts core.EngineOptions, cfg server.Config) (urls []string, stop func() error, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	var nodes []*shard.Node
	done := make(chan error, n)
	stop = func() error {
		cancel()
		var errs error
		for range nodes {
			errs = errors.Join(errs, <-done)
		}
		for _, node := range nodes {
			node.Close()
		}
		return errs
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, errors.Join(err, stop())
		}
		node := shard.NewNode(i, engOpts)
		nodes = append(nodes, node)
		urls = append(urls, "http://"+ln.Addr().String())
		go func() { done <- server.NewWorker(node, cfg).Serve(ctx, ln) }()
	}
	return urls, stop, nil
}

// serveFront serves srv on addr until ctx is cancelled and the front has
// drained, and only then drains the loopback workers behind it (stopWorkers
// may be nil): stopping them first would fail the front's in-flight legs
// with connection errors.
func serveFront(ctx context.Context, srv *server.Server, addr string, stopWorkers func() error) error {
	err := srv.Run(ctx, addr)
	if stopWorkers != nil {
		err = errors.Join(err, stopWorkers())
	}
	return err
}
