// Command aggcached runs the middle tier as a standalone server: an
// aggregate aware chunk cache in front of a backend database, answering mdq
// queries from TCP clients (see internal/mtier for the protocol).
//
// Usage:
//
//	aggcached -scale small -listen 127.0.0.1:7071                  # in-process backend
//	aggcached -scale small -backend 127.0.0.1:7070 -preload        # against backendd
//	aggcached -scale small -ops 127.0.0.1:9090                     # + live observability
//	aggcached -backend 127.0.0.1:7070 -query-timeout 2s            # bounded queries
//	aggcached -listen 127.0.0.1:7071 \
//	          -peers 127.0.0.1:7071,127.0.0.1:7072                 # 2-node cluster member
//
// With -ops set, an HTTP listener serves /metrics (Prometheus text format),
// /healthz, /traces (recent query provenance as JSON) and /debug/pprof/.
//
// The backend path is fault tolerant: remote requests are retried with
// capped exponential backoff (-backend-attempts, -backend-backoff,
// -backend-io-timeout), a circuit breaker (-breaker-threshold,
// -breaker-cooldown) fails fast once the backend is down, and while it is
// open the cache keeps answering every cache-computable query (degraded
// mode — /healthz stays 200 and says so).
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"aggcache/internal/apb"
	"aggcache/internal/backend"
	"aggcache/internal/cache"
	"aggcache/internal/chunk"
	"aggcache/internal/core"
	"aggcache/internal/data"
	"aggcache/internal/mtier"
	"aggcache/internal/obs"
	"aggcache/internal/wire"
)

func main() {
	var (
		scaleFlag      = flag.String("scale", "small", "dataset scale: tiny|small|medium|full")
		seedFlag       = flag.Int64("seed", 1, "generator seed (in-process backend)")
		stratFlag      = flag.String("strategy", "VCMC", "lookup strategy: ESM|ESMC|VCM|VCMC|NoAgg")
		cacheKBFlag    = flag.Int64("cache-kb", 512, "cache size in KB")
		shardsFlag     = flag.Int("cache-shards", 1, "cache shard count (power of two, max 64); 1 = one stripe (one lock), 0 = auto (GOMAXPROCS)")
		backendFlag    = flag.String("backend", "", "remote backend address (empty = in-process)")
		listenFlag     = flag.String("listen", "127.0.0.1:7071", "listen address")
		preloadFlag    = flag.Bool("preload", false, "preload the best-fitting group-by before serving")
		recycleFlag    = flag.Bool("recycle", true, "benefit-driven recycling of intermediate aggregates (admits profitable interior roll-ups; uses the probation+promote replacement rings)")
		recycleMinFlag = flag.Float64("recycle-min-benefit", core.DefaultRecycleMinBenefit, "recycler admission threshold in saved recompute cost per byte (0 = default)")
		coldKBFlag     = flag.Int64("cold-kb", 0, "compressed in-RAM cold tier size in KB: hot-tier victims are demoted (delta/varint-encoded) instead of dropped, and answer from the cold tier until cold pressure evicts them (0 = disabled)")
		snapDirFlag    = flag.String("snapshot-dir", "", "snapshot directory: cache.snap inside it is loaded at startup (warm restart) and written on SIGINT/SIGTERM and every -snapshot-interval; a snapshot is only valid for the dataset it was taken over (same -scale, -seed and backend), so use a fresh directory when the data changes")
		snapIntFlag    = flag.Duration("snapshot-interval", 0, "periodic cache snapshot flush interval (0 = flush on shutdown only; needs -snapshot-dir)")
		opsFlag        = flag.String("ops", "", "ops HTTP listen address serving /metrics, /healthz, /traces and /debug/pprof (empty = disabled)")
		tracesFlag     = flag.Int("traces", obs.DefaultTraceDepth, "query traces retained for /traces")

		queryTimeoutFlag = flag.Duration("query-timeout", 0, "per-query execution deadline (0 = unbounded)")
		attemptsFlag     = flag.Int("backend-attempts", backend.DefaultRetryPolicy.MaxAttempts, "tries per remote backend request, including the first")
		backoffFlag      = flag.Duration("backend-backoff", backend.DefaultRetryPolicy.BaseBackoff, "base backoff before the first remote retry (doubles, jittered, capped)")
		ioTimeoutFlag    = flag.Duration("backend-io-timeout", backend.DefaultRetryPolicy.IOTimeout, "wire deadline per remote backend exchange")
		brkThreshFlag    = flag.Int("breaker-threshold", 5, "consecutive backend failures that open the circuit breaker (0 = breaker disabled)")
		brkCooldownFlag  = flag.Duration("breaker-cooldown", 2*time.Second, "how long the breaker stays open before probing the backend")

		maxFrameFlag    = flag.Int("wire-max-frame", 0, "max wire frame payload in bytes, both tiers (0 = 64MiB default)")
		inFlightFlag    = flag.Int("wire-max-inflight", 0, "max concurrently served frames per client connection (0 = 32 default)")
		clientReadFlag  = flag.Duration("client-read-timeout", mtier.DefaultTimeouts.Read, "idle deadline per client connection awaiting the next query (0 = none)")
		clientWriteFlag = flag.Duration("client-write-timeout", mtier.DefaultTimeouts.Write, "deadline for writing one response to a client")

		admitMaxFlag    = flag.Int("admit-max", 0, "execution slots for the server-wide admission queue (0 = admission control disabled)")
		admitQueueFlag  = flag.Int("admit-queue", 0, "queued queries beyond the slots before shedding (0 = 4x -admit-max)")
		admitWaitFlag   = flag.Duration("admit-max-wait", 0, "longest a query may wait for a slot before being shed (0 = 250ms)")
		tenantQPSFlag   = flag.Float64("tenant-qps", 0, "admitted queries/sec per tenant (0 = unlimited)")
		tenantBurstFlag = flag.Int("tenant-burst", 0, "per-tenant qps burst size (0 = 2x -tenant-qps)")
		tenantBytesFlag = flag.Float64("tenant-bytes-per-sec", 0, "response bytes/sec per tenant, charged after encoding (0 = unlimited)")

		peersFlag     = flag.String("peers", "", "comma-separated cluster membership (aggcached listen addresses, including this node's own); empty = no cluster tier")
		peerSelfFlag  = flag.String("peer-self", "", "this node's address as it appears in -peers; startup fails, and a SIGHUP reload is refused, when the membership leaves it out (default: the -listen address, so set this when listening on a wildcard address)")
		peersFileFlag = flag.String("peers-file", "", "file with one peer address per line, merged with -peers at startup and re-read on SIGHUP to rebuild the ring")
	)
	flag.Parse()
	if *snapIntFlag > 0 && *snapDirFlag == "" {
		// Without a directory there is nowhere to flush to; refuse rather
		// than run with snapshots silently off.
		fmt.Fprintln(flag.CommandLine.Output(), "aggcached: -snapshot-interval needs -snapshot-dir")
		flag.Usage()
		os.Exit(2)
	}

	scale, err := apb.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	cfg := apb.New(scale)
	grid, err := chunk.NewGrid(cfg.Schema, cfg.ChunkCounts)
	if err != nil {
		fatal(err)
	}

	// Observability: one registry and trace ring shared by every tier of
	// the process; without -ops there is neither (a nil registry's bundles
	// count into unregistered handles).
	var reg *obs.Registry
	var ring *obs.TraceRing
	if *opsFlag != "" {
		reg = obs.NewRegistry()
		ring = obs.NewTraceRing(*tracesFlag)
	}

	var be backend.Backend
	rows := cfg.Rows
	if *backendFlag != "" {
		pol := backend.DefaultRetryPolicy
		pol.MaxAttempts = *attemptsFlag
		pol.BaseBackoff = *backoffFlag
		pol.IOTimeout = *ioTimeoutFlag
		remote, err := backend.DialPolicy(*backendFlag, pol, *maxFrameFlag, obs.NewRemoteMetrics(reg))
		if err != nil {
			fatal(err)
		}
		be = remote
		fmt.Printf("aggcached: using remote backend %s (%d attempts, %v base backoff)\n",
			*backendFlag, pol.MaxAttempts, pol.BaseBackoff)
	} else {
		tab, err := data.Generate(cfg.Schema, data.Params{
			Rows: cfg.Rows, Density: cfg.Density, TimeDim: cfg.TimeDim, Seed: *seedFlag,
		})
		if err != nil {
			fatal(err)
		}
		rows = tab.Len()
		engine, err := backend.NewEngine(grid, tab, backend.DefaultLatency)
		if err != nil {
			fatal(err)
		}
		if reg != nil {
			engine.SetMetrics(obs.NewBackendMetrics(reg))
		}
		be = engine
	}
	if *brkThreshFlag > 0 {
		brk := backend.NewBreaker(be, backend.BreakerConfig{
			FailureThreshold: *brkThreshFlag,
			Cooldown:         *brkCooldownFlag,
		})
		if reg != nil {
			brk.SetMetrics(obs.NewBreakerMetrics(reg))
		}
		be = brk
	}
	defer be.Close()

	// Cluster tier: misses route to the key's ring owner before the backend
	// (see DESIGN.md §12).
	var peers *cache.PeeredConfig
	if *peersFlag != "" || *peersFileFlag != "" {
		members := splitPeers(*peersFlag)
		if *peersFileFlag != "" {
			fm, err := readPeersFile(*peersFileFlag)
			if err != nil {
				fatal(err)
			}
			members = append(members, fm...)
		}
		peers = &cache.PeeredConfig{Self: cmp.Or(*peerSelfFlag, *listenFlag), Members: members,
			Dial: func(addr string) cache.Peer { return mtier.NewPeerClient(addr, *maxFrameFlag) }}
	}
	stack, err := core.Build(core.Config{
		Grid: grid, Backend: be, Rows: int64(rows), Strategy: *stratFlag, LookupBudget: 2_000_000,
		HotBytes: *cacheKBFlag << 10, ColdBytes: *coldKBFlag << 10, Peers: peers, Metrics: reg,
		Shards: cmp.Or(*shardsFlag, -1), // -cache-shards 0 (auto) is a negative count to Build
		Options: []core.Option{
			core.WithRecycling(*recycleFlag),
			core.WithRecycleMinBenefit(*recycleMinFlag),
		},
	})
	if err != nil {
		fatal(err)
	}
	eng, pc := stack.Engine, stack.Peered
	if pc != nil {
		fmt.Printf("aggcached: cluster %s, self=%s\n", pc.Ring(), pc.Self())
	}
	snapPath := ""
	if *snapDirFlag != "" {
		if err := os.MkdirAll(*snapDirFlag, 0o755); err != nil {
			fatal(err)
		}
		snapPath = filepath.Join(*snapDirFlag, "cache.snap")
		n, lerr := eng.LoadCacheFile(snapPath)
		switch {
		case lerr == nil:
			fmt.Printf("aggcached: warm restart, %d chunks from %s\n", n, snapPath)
		case errors.Is(lerr, os.ErrNotExist):
			// First boot: nothing to restore.
		case errors.Is(lerr, cache.ErrSnapshot) && n > 0:
			// Torn tail or flipped bit mid-log: a partially warm cache beats
			// a cold one, so keep the valid prefix and move on.
			fmt.Fprintf(os.Stderr, "aggcached: partial warm restart, %d chunks from %s (%v)\n", n, snapPath, lerr)
		default:
			fatal(lerr)
		}
	}
	if *preloadFlag && eng.Cache().Len() == 0 {
		if gb, ok, err := eng.Preload(context.Background()); err != nil {
			fatal(err)
		} else if ok {
			fmt.Printf("aggcached: preloaded %s (%d chunks)\n",
				grid.Lattice().LevelTupleString(gb), grid.NumChunks(gb))
		}
	}

	srv := mtier.NewServer(eng)
	srv.SetQueryTimeout(*queryTimeoutFlag)
	srv.SetTimeouts(wire.Timeouts{Read: *clientReadFlag, Write: *clientWriteFlag})
	srv.SetMaxPayload(*maxFrameFlag)
	srv.SetMaxInFlight(*inFlightFlag)
	if *admitMaxFlag > 0 {
		srv.SetAdmission(mtier.AdmissionConfig{
			MaxConcurrent:     *admitMaxFlag,
			MaxQueue:          *admitQueueFlag,
			MaxWait:           *admitWaitFlag,
			TenantQPS:         *tenantQPSFlag,
			TenantBurst:       *tenantBurstFlag,
			TenantBytesPerSec: *tenantBytesFlag,
		})
		queue, wait := *admitQueueFlag, *admitWaitFlag
		if queue <= 0 {
			queue = 4 * *admitMaxFlag
		}
		if wait <= 0 {
			wait = 250 * time.Millisecond
		}
		fmt.Printf("aggcached: admission control: %d slots, queue %d, max wait %v\n",
			*admitMaxFlag, queue, wait)
	}
	if reg != nil {
		srv.SetObs(reg, ring)
	}
	addr, err := srv.Listen(*listenFlag)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("aggcached: %s scale, %s strategy, %dKB cache (%d shard(s), %dKB compressed cold tier), serving on %s\n",
		scale, eng.Strategy().Name(), *cacheKBFlag, stack.Hot.Shards(), max(*coldKBFlag, 0), addr)
	if *opsFlag != "" {
		opsAddr, err := srv.ServeOps(*opsFlag)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("aggcached: ops endpoint on http://%s/metrics\n", opsAddr)
	}

	// SIGHUP reloads the cluster membership from -peers-file and rebuilds
	// the ring in place; traffic in flight routes by whichever ring it
	// loaded first.
	if pc != nil && *peersFileFlag != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				members, err := readPeersFile(*peersFileFlag)
				if err == nil {
					err = pc.Rebuild(members)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "aggcached: peers reload refused, keeping the old ring:", err)
					continue
				}
				fmt.Printf("aggcached: peer ring rebuilt: %s\n", pc.Ring())
			}
		}()
	}

	// Periodic snapshot flush: every interval the cache is re-snapshotted
	// atomically (temp + rename), so a later crash restarts warm from the
	// last flush rather than only from a clean shutdown.
	flushDone := make(chan struct{})
	if snapPath != "" && *snapIntFlag > 0 {
		ticker := time.NewTicker(*snapIntFlag)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if _, err := eng.SaveCacheFile(snapPath); err != nil {
						fmt.Fprintln(os.Stderr, "aggcached: snapshot flush:", err)
					}
				case <-flushDone:
					return
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(flushDone)
	fmt.Println("aggcached: shutting down")
	st := eng.Stats()
	fmt.Printf("aggcached: served %d queries, %d complete hits, %d backend trips\n",
		st.Queries, st.CompleteHits, st.BackendQueries)
	if ts, ok := eng.TierStats(); ok {
		fmt.Printf("aggcached: cold tier: %d hits, %d demotes (%d denied), %d/%d bytes holding %d raw\n",
			ts.ColdHits, ts.Demotes, ts.DemoteDenied, ts.ColdUsed, ts.ColdCapacity, ts.ColdRawBytes)
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	if pc != nil {
		pc.Close() // drains the replication queue, so the counts are final
		ps := pc.PeerStats()
		fmt.Printf("aggcached: cluster: %d peer fills, %d fill misses, %d fill errors, %d puts\n",
			ps.Fills, ps.FillMisses, ps.FillErrors, ps.Puts)
	}
	if snapPath != "" {
		n, err := eng.SaveCacheFile(snapPath)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("aggcached: cache snapshot written to %s (%d chunks)\n", snapPath, n)
	}
}

// splitPeers parses a comma-separated peer list, dropping empty entries.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// readPeersFile reads one peer address per line; blank lines and whole
// #-comment lines are skipped.
func readPeersFile(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("peers file: %w", err)
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aggcached:", err)
	os.Exit(1)
}
