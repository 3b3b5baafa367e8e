// Command dlht-loadgen drives a dlht-server with pipelined traffic and
// reports throughput and latency percentiles. It first prepopulates the
// keyspace with INSERTs, then runs a mixed GET/PUT phase in which every
// connection keeps -pipeline requests in flight — the client-side mirror
// of the server's batch execution.
//
// Usage:
//
//	dlht-loadgen -addr localhost:4040 -conns 8 -pipeline 16 \
//	    -ops 1000000 -keys 100000 -read-pct 50 -dist uniform
//
// With -embedded the loadgen starts an in-process dlht-server on a loopback
// port and drives that, making a single binary sufficient for end-to-end
// experiments — in particular sweeping -window (the table's prefetch
// window) against -pipeline (the client-side burst depth it feeds). With
// -async each connection drives the client's callback API (GetAsync/
// PutAsync + RecvOneAsync) instead of explicit Send/Recv pairs.
//
// With -addrs host:p1,host:p2,... the loadgen shards the keyspace across
// several dlht-server processes instead: each worker dials a
// consistent-hashed Cluster (one pipelined protocol-v2 connection per
// shard) and drives it through the backend-independent Store surface —
// synchronous ops by default, the completion-driven Pipe under -async
// with -pipeline requests in flight per shard.
//
// Cluster mode understands replication: -replicas R fans every write to
// R ring-successor shards, -write-quorum W acks once W have applied, and
// shard connections transparently redial with backoff. Errors no longer
// abort a worker — each op's outcome is counted and classified
// (retryable transport failures vs terminal refusals vs misses) and the
// run reports an availability line; -max-error-rate sets the tolerated
// percentage (default 0: any error still fails the run, as before).
// -verify re-reads the whole keyspace afterwards and fails on any
// missing key — the zero-lost-acked-writes check the failover smoke
// leans on.
//
// -churn N performs N online membership changes during the measured run,
// alternating AddShard/RemoveShard of the -spares addresses on a shared
// topology every worker observes live: the availability and -verify
// gates then hold the cluster to its zero-downtime-resharding claim.
//
// With -resp host:port the loadgen instead drives a dlht-server's RESP2
// listener (see dlht-server -resp) through the internal RESP client:
// pipelined SET then GET phases, redis-benchmark-shaped, reported as
// stable `resp set:`/`resp get:` lines the smoke script parses.
//
// In single-server mode any transport error or unexpected response
// status counts as an error; the process exits non-zero if any occurred.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dlht "repro"
	"repro/internal/bench"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:4040", "server address")
		addrs    = flag.String("addrs", "", "comma-separated shard addresses; enables sharded-cluster mode (overrides -addr/-embedded)")
		respAddr = flag.String("resp", "", "RESP2 mode: address of a dlht-server -resp listener; runs pipelined SET then GET phases through the internal RESP client (overrides other modes)")
		conns    = flag.Int("conns", 8, "concurrent connections")
		pipeline = flag.Int("pipeline", 16, "requests kept in flight per connection")
		totalOps = flag.Uint64("ops", 1_000_000, "total measured operations across all connections")
		keys     = flag.Uint64("keys", 100_000, "prepopulated keyspace size")
		readPct  = flag.Int("read-pct", 50, "percentage of GETs (rest are PUTs)")
		dist     = flag.String("dist", "uniform", "key distribution: uniform|zipf|hot")
		skipLoad = flag.Bool("skip-load", false, "skip the INSERT prepopulation phase")
		async    = flag.Bool("async", false, "drive the mixed phase through the async client API (GetAsync/PutAsync callbacks) instead of Send/Recv")
		embedded = flag.Bool("embedded", false, "start an in-process server on a loopback port (ignores -addr)")
		window   = flag.Int("window", 0, "embedded server's prefetch window (<=0 = default 16)")
		bins     = flag.Uint64("bins", 1<<18, "embedded server's initial bin count")
		execName = flag.String("exec", "shared", "embedded server's execution model: shared|conn")

		replicas    = flag.Int("replicas", 0, "cluster mode: copies per key (0/1 = no replication)")
		writeQuorum = flag.Int("write-quorum", 0, "cluster mode: acks required per write (0 = replicas)")
		maxErrRate  = flag.Float64("max-error-rate", 0, "cluster mode: tolerated error percentage before exiting non-zero (0 = strict)")
		verify      = flag.Bool("verify", false, "cluster mode: after the run, read back every loaded key and fail on any missing")
		churn       = flag.Int("churn", 0, "cluster mode: online membership changes during the measured run, alternating AddShard/RemoveShard of the -spares addresses (workers observe every ring flip live)")
		spares      = flag.String("spares", "", "cluster mode: comma-separated spare shard addresses -churn cycles in and out of the ring")
	)
	flag.Parse()
	if *conns < 1 || *pipeline < 1 || *readPct < 0 || *readPct > 100 {
		log.Fatal("bad flags: need conns>=1, pipeline>=1, 0<=read-pct<=100")
	}
	if *pipeline > 4096 {
		// Deeper pipelines can deadlock on kernel socket buffers: the
		// server blocks writing responses nobody is reading yet.
		log.Fatal("bad flags: pipeline must be <= 4096")
	}

	if *respAddr != "" {
		runRESP(respConfig{
			addr:     *respAddr,
			conns:    *conns,
			pipeline: *pipeline,
			totalOps: *totalOps,
			keys:     *keys,
		})
		return
	}

	if *addrs != "" {
		runCluster(clusterConfig{
			shards:      strings.Split(*addrs, ","),
			conns:       *conns,
			pipeline:    *pipeline,
			totalOps:    *totalOps,
			keys:        *keys,
			readPct:     *readPct,
			dist:        *dist,
			async:       *async,
			skipLoad:    *skipLoad,
			replicas:    *replicas,
			writeQuorum: *writeQuorum,
			maxErrRate:  *maxErrRate,
			verify:      *verify,
			churn:       *churn,
			spares:      splitNonEmpty(*spares),
		})
		return
	}

	if *embedded {
		execMode, ok := server.ParseExecMode(*execName)
		if !ok {
			log.Fatalf("unknown -exec %q (want shared|conn)", *execName)
		}
		tbl, err := dlht.New(dlht.Config{Bins: *bins, Resizable: true, MaxThreads: 4096, PrefetchWindow: *window})
		if err != nil {
			log.Fatal(err)
		}
		srv := server.New(tbl, server.Options{Exec: execMode})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		*addr = ln.Addr().String()
		fmt.Printf("embedded server on %s (bins=%d window=%d exec=%s)\n", *addr, *bins, *window, execMode)
	}

	if !*skipLoad {
		m, errs := load(*addr, *conns, *pipeline, *keys)
		if errs > 0 {
			log.Fatalf("load phase: %d errors", errs)
		}
		fmt.Printf("loaded %d keys in %v (%.2f M inserts/s)\n",
			m.Ops, m.Elapsed.Round(time.Millisecond), m.MReqs())
	}

	api := "send/recv"
	if *async {
		api = "async"
	}
	fmt.Printf("run: %d ops over %d conns × pipeline %d (%d%% GET / %d%% PUT, %s keys, %s API)\n",
		*totalOps, *conns, *pipeline, *readPct, 100-*readPct, *dist, api)
	m, lat, errs := run(*addr, *conns, *pipeline, *totalOps, *keys, *readPct, *dist, *async)
	fmt.Printf("throughput: %.2f M reqs/s (%d ops in %v)\n",
		m.MReqs(), m.Ops, m.Elapsed.Round(time.Millisecond))
	fmt.Println(lat)
	fmt.Printf("errors: %d\n", errs)
	if errs > 0 {
		os.Exit(1)
	}
}

// load prepopulates [0, keys) with INSERTs, striped across connections.
func load(addr string, conns, pipeline int, keys uint64) (bench.Measurement, uint64) {
	var errs atomic.Uint64
	var wg sync.WaitGroup
	begin := time.Now()
	per := (keys + uint64(conns) - 1) / uint64(conns)
	for c := 0; c < conns; c++ {
		lo := uint64(c) * per
		hi := lo + per
		if hi > keys {
			hi = keys
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			cl, err := server.DialV2(addr, server.ClientOpts{})
			if err != nil {
				errs.Add(1)
				return
			}
			defer cl.Close()
			sent, recvd := lo, lo
			for recvd < hi {
				for sent < hi && sent-recvd < uint64(pipeline) {
					if err := cl.Send(server.Request{Op: server.OpInsert, Key: sent, Value: sent ^ 0xdead}); err != nil {
						errs.Add(1)
						return
					}
					sent++
				}
				if err := cl.Flush(); err != nil {
					errs.Add(1)
					return
				}
				r, err := cl.Recv()
				if err != nil {
					errs.Add(1)
					return
				}
				if r.Status != server.StatusOK && r.Status != server.StatusExists {
					errs.Add(1)
				}
				recvd++
			}
		}(lo, hi)
	}
	wg.Wait()
	return bench.Measurement{Ops: keys, Elapsed: time.Since(begin)}, errs.Load()
}

// keyStream abstracts the three supported distributions.
type keyStream interface{ Key() uint64 }

func newStream(dist string, seed, keys uint64) keyStream {
	switch dist {
	case "uniform":
		return workload.NewUniform(seed, keys)
	case "zipf":
		return workload.NewZipf(seed, keys, 0.99)
	case "hot":
		// §5.2.4 hot set: 90% of accesses over 1000 hot keys.
		return workload.NewSkewed(seed, keys, 1000, 90)
	}
	log.Fatalf("unknown -dist %q (want uniform|zipf|hot)", dist)
	return nil
}

// run executes the measured mixed phase and aggregates throughput, latency
// and error counts across connections. With async=true each connection
// drives the callback API (GetAsync/PutAsync + RecvOneAsync) instead of
// explicit Send/Recv pairs — the client-side mirror of the server's
// completion-driven pipeline; both keep -pipeline requests in flight.
func run(addr string, conns, pipeline int, totalOps, keys uint64, readPct int, dist string, async bool) (bench.Measurement, bench.LatencySummary, uint64) {
	var total, errs atomic.Uint64
	agg := bench.NewSampler(1 << 20)
	var aggMu sync.Mutex
	var wg sync.WaitGroup
	per := totalOps / uint64(conns)
	begin := time.Now()
	for c := 0; c < conns; c++ {
		quota := per
		if c == 0 {
			quota += totalOps % uint64(conns) // remainder rides on conn 0
		}
		wg.Add(1)
		go func(c int, quota uint64) {
			defer wg.Done()
			cl, err := server.DialV2(addr, server.ClientOpts{})
			if err != nil {
				errs.Add(quota)
				return
			}
			defer cl.Close()
			stream := newStream(dist, uint64(c)*2654435761+7, keys)
			rng := workload.NewRNG(uint64(c)*7919 + 3)
			sampler := bench.NewSampler(1 << 17)
			times := make([]time.Time, pipeline)
			var sent, recvd uint64
			if async {
				// One callback closure serves every request: responses
				// arrive in request order, so recvd indexes the send-time
				// ring exactly as the Send/Recv loop below does.
				ok := true
				cb := func(r server.Response) {
					sampler.Add(time.Since(times[recvd%uint64(pipeline)]).Nanoseconds())
					if r.Status != server.StatusOK {
						errs.Add(1)
					}
					recvd++
				}
				for recvd < quota {
					topped := false
					for sent < quota && sent-recvd < uint64(pipeline) {
						k := stream.Key()
						var err error
						if int(rng.Uint64n(100)) >= readPct {
							err = cl.PutAsync(k, rng.Next(), cb)
						} else {
							err = cl.GetAsync(k, cb)
						}
						if err != nil {
							errs.Add(quota - recvd)
							ok = false
							break
						}
						times[sent%uint64(pipeline)] = time.Now()
						sent++
						topped = true
					}
					if !ok {
						break
					}
					if topped {
						if err := cl.Flush(); err != nil {
							errs.Add(quota - recvd)
							break
						}
					}
					if err := cl.RecvOneAsync(); err != nil {
						errs.Add(quota - recvd)
						break
					}
				}
				total.Add(recvd)
				aggMu.Lock()
				agg.Merge(sampler)
				aggMu.Unlock()
				return
			}
			for recvd < quota {
				topped := false
				for sent < quota && sent-recvd < uint64(pipeline) {
					k := stream.Key()
					req := server.Request{Op: server.OpGet, Key: k}
					if int(rng.Uint64n(100)) >= readPct {
						req = server.Request{Op: server.OpPut, Key: k, Value: rng.Next()}
					}
					if err := cl.Send(req); err != nil {
						errs.Add(quota - recvd)
						return
					}
					times[sent%uint64(pipeline)] = time.Now()
					sent++
					topped = true
				}
				if topped {
					if err := cl.Flush(); err != nil {
						errs.Add(quota - recvd)
						return
					}
				}
				r, err := cl.Recv()
				if err != nil {
					errs.Add(quota - recvd)
					return
				}
				sampler.Add(time.Since(times[recvd%uint64(pipeline)]).Nanoseconds())
				// Every key is prepopulated and never deleted, so both GET
				// and PUT must answer StatusOK.
				if r.Status != server.StatusOK {
					errs.Add(1)
				}
				recvd++
			}
			total.Add(recvd)
			aggMu.Lock()
			agg.Merge(sampler)
			aggMu.Unlock()
		}(c, quota)
	}
	wg.Wait()
	m := bench.Measurement{Ops: total.Load(), Elapsed: time.Since(begin)}
	return m, agg.Summary(), errs.Load()
}

// clusterConfig bundles the -addrs mode's knobs.
type clusterConfig struct {
	shards                []string
	conns, pipeline       int
	totalOps, keys        uint64
	readPct               int
	dist                  string
	async, skipLoad       bool
	replicas, writeQuorum int
	maxErrRate            float64
	verify                bool
	churn                 int
	spares                []string
}

// splitNonEmpty is strings.Split that maps "" to nil.
func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func (cfg clusterConfig) clusterOpts() dlht.ClusterOpts {
	return dlht.ClusterOpts{Replicas: cfg.replicas, WriteQuorum: cfg.writeQuorum}
}

// client opens one per-goroutine cluster instance: over the shared
// topology when there is one (churn), else a cluster of its own.
func (cfg clusterConfig) client(topo *dlht.Topology) (*dlht.Cluster, error) {
	if topo != nil {
		return topo.NewClient()
	}
	s, err := dlht.Open("cluster:"+strings.Join(cfg.shards, ","), dlht.WithClusterOpts(cfg.clusterOpts()))
	if err != nil {
		return nil, err
	}
	return s.(*dlht.Cluster), nil
}

// errCounts classifies per-op failures. Retryable errors are transport
// blips the retry/failover machinery could not absorb in time, terminal
// errors are semantic refusals (protocol or table level), and misses are
// absent keys — under replication with W < R a read racing a failover
// can legitimately miss until the lagging replica converges.
type errCounts struct {
	retryable, terminal, miss atomic.Uint64
}

// note classifies one op outcome and reports whether it was an error.
// ErrExists is success: a retried Insert finding its key (at-least-once
// delivery after an indeterminate failure) means the data is there.
func (e *errCounts) note(err error, ok bool) bool {
	switch {
	case err == nil && ok:
		return false
	case errors.Is(err, dlht.ErrExists):
		return false
	case err == nil:
		e.miss.Add(1)
	case server.IsRetryable(err):
		e.retryable.Add(1)
	default:
		e.terminal.Add(1)
	}
	return true
}

func (e *errCounts) total() uint64 {
	return e.retryable.Load() + e.terminal.Load() + e.miss.Load()
}

// runCluster is the -addrs mode: the measured phases drive a
// consistent-hashed (optionally replicated) Cluster per worker through
// the Store surface, so the identical workload logic scales from one
// shard to N by changing the address list. Transient errors are counted,
// not fatal: the run reports error-rate and availability lines and exits
// non-zero only when the error rate exceeds -max-error-rate (or, with
// -verify, when a loaded key went missing).
func runCluster(cfg clusterConfig) {
	// With -churn the workers must share one membership view — ring flips
	// published by the churn goroutine reach every worker's next op — so
	// the run uses a shared Topology with one lazy instance per worker.
	var topo *dlht.Topology
	if cfg.churn > 0 {
		if len(cfg.spares) == 0 {
			log.Fatal("-churn needs -spares addresses to cycle in and out")
		}
		var err error
		topo, err = dlht.DialTopology(cfg.shards, cfg.clusterOpts())
		if err != nil {
			log.Fatalf("dial topology: %v", err)
		}
		defer topo.Close()
	}
	if !cfg.skipLoad {
		m, errs := clusterLoad(cfg)
		if n := errs.total(); n > 0 {
			// The load phase seeds the verify oracle; it stays strict.
			log.Fatalf("load phase: %d errors (retryable %d, terminal %d, missing %d)",
				n, errs.retryable.Load(), errs.terminal.Load(), errs.miss.Load())
		}
		fmt.Printf("loaded %d keys across %d shards in %v (%.2f M inserts/s)\n",
			m.Ops, len(cfg.shards), m.Elapsed.Round(time.Millisecond), m.MReqs())
	}
	api := "sync store"
	if cfg.async {
		api = "async pipe"
	}
	rep := ""
	if cfg.replicas > 1 {
		rep = fmt.Sprintf(", R=%d W=%d", cfg.replicas, cfg.writeQuorum)
	}
	fmt.Printf("run: %d ops over %d conns × %d shards (%d%% GET / %d%% PUT, %s keys, %s API, window %d%s)\n",
		cfg.totalOps, cfg.conns, len(cfg.shards), cfg.readPct, 100-cfg.readPct, cfg.dist, api, cfg.pipeline, rep)
	m, lat, errs, churnErr := clusterRun(cfg, topo)
	fmt.Printf("throughput: %.2f M reqs/s (%d ops in %v)\n",
		m.MReqs(), m.Ops, m.Elapsed.Round(time.Millisecond))
	fmt.Println(lat)
	nerr := errs.total()
	rate := 0.0
	if cfg.totalOps > 0 {
		rate = float64(nerr) / float64(cfg.totalOps) * 100
	}
	fmt.Printf("errors: %d (retryable %d, terminal %d, missing %d)\n",
		nerr, errs.retryable.Load(), errs.terminal.Load(), errs.miss.Load())
	fmt.Printf("availability: %.4f%% (%d/%d ops acked)\n", 100-rate, cfg.totalOps-nerr, cfg.totalOps)

	failed := rate > cfg.maxErrRate || (nerr > 0 && cfg.maxErrRate == 0)
	if topo != nil {
		fmt.Printf("reshard: moved %d keys (epoch %d)\n", topo.MovedKeys(), topo.Epoch())
		if churnErr != nil {
			fmt.Printf("reshard: FAILED: %v\n", churnErr)
			failed = true
		}
	}
	if cfg.verify {
		missing := clusterVerify(cfg, topo)
		fmt.Printf("verify: %d/%d loaded keys present, %d missing\n", cfg.keys-missing, cfg.keys, missing)
		if missing > 0 {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// clusterVerify reads back every loaded key through one (replicated,
// retrying) cluster connection and returns how many are missing — acked
// inserts that survived neither any replica nor its WAL. Under churn the
// check rides the shared topology: the final ring may include spares.
func clusterVerify(cfg clusterConfig, topo *dlht.Topology) uint64 {
	clu, err := cfg.client(topo)
	if err != nil {
		log.Fatalf("verify: dial: %v", err)
	}
	defer clu.Close()
	var missing uint64
	for k := uint64(0); k < cfg.keys; k++ {
		if _, ok, err := clu.Get(k); err != nil || !ok {
			missing++
		}
	}
	return missing
}

// churnLoop performs up to n membership changes, cycling each spare into
// and back out of the ring, until the run finishes. Returns how many
// changes completed and the first failure (a failed change also aborts
// the loop — later changes would compound whatever broke).
func churnLoop(topo *dlht.Topology, spares []string, n int, done <-chan struct{}) (int, error) {
	in := false
	si := 0
	for i := 0; i < n; i++ {
		select {
		case <-done:
			return i, nil
		default:
		}
		sp := spares[si%len(spares)]
		var err error
		if in {
			err = topo.RemoveShard(sp)
			si++
		} else {
			err = topo.AddShard(sp)
		}
		if err != nil {
			return i, err
		}
		in = !in
	}
	// Leave the ring as found: a trailing AddShard is cycled back out so
	// post-run tooling sees the original membership.
	if in {
		if err := topo.RemoveShard(spares[si%len(spares)]); err != nil {
			return n, err
		}
	}
	return n, nil
}

// clusterLoad prepopulates [0, keys) through per-worker cluster pipes,
// striped across workers; routing sends each insert to its replica set.
// Insert completions are the acks the -verify pass holds the cluster to.
func clusterLoad(cfg clusterConfig) (bench.Measurement, *errCounts) {
	errs := &errCounts{}
	var wg sync.WaitGroup
	begin := time.Now()
	conns := cfg.conns
	per := (cfg.keys + uint64(conns) - 1) / uint64(conns)
	for c := 0; c < conns; c++ {
		lo := uint64(c) * per
		hi := lo + per
		if hi > cfg.keys {
			hi = cfg.keys
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			clu, err := cfg.client(nil)
			if err != nil {
				errs.note(err, false)
				return
			}
			defer clu.Close()
			p, err := clu.Pipe(dlht.PipeOpts{Window: cfg.pipeline, OnComplete: func(cp dlht.Completion) {
				errs.note(cp.Err, cp.OK)
			}})
			if err != nil {
				errs.note(err, false)
				return
			}
			for k := lo; k < hi; k++ {
				if err := p.Insert(k, k^0xdead); err != nil {
					errs.note(err, false)
					return
				}
			}
			if err := p.Close(); err != nil {
				errs.note(err, false)
			}
		}(lo, hi)
	}
	wg.Wait()
	return bench.Measurement{Ops: cfg.keys, Elapsed: time.Since(begin)}, errs
}

// clusterRun executes the measured mixed phase against per-worker
// Clusters. The sync path measures one Store round trip per op; the async
// path keeps a window of requests in flight per shard and tracks per-op
// latency through per-shard FIFO timestamp rings — sound because cluster
// completions arrive in per-primary enqueue order (the Pipe contract,
// replicated or not). Errors never abort a worker: each op counts once,
// classified, so a mid-run shard kill shows up as an availability dip
// (and failover latency in the tail percentiles) instead of a dead run.
//
// With a shared topo (the -churn path) every worker is an instance of the
// same Topology, a churn goroutine reshapes the ring mid-run, and async
// latency tracking switches to per-KEY timestamp FIFOs: per-shard rings
// assume a fixed key→shard mapping, per-key program order is the
// invariant that survives a ring flip.
func clusterRun(cfg clusterConfig, topo *dlht.Topology) (bench.Measurement, bench.LatencySummary, *errCounts, error) {
	var total atomic.Uint64
	errs := &errCounts{}
	agg := bench.NewSampler(1 << 20)
	var aggMu sync.Mutex
	var wg sync.WaitGroup
	conns := cfg.conns
	per := cfg.totalOps / uint64(conns)
	begin := time.Now()

	var churnErr error
	churnN := 0
	churnDone := make(chan struct{})
	runDone := make(chan struct{})
	if topo != nil && cfg.churn > 0 {
		go func() {
			defer close(churnDone)
			churnN, churnErr = churnLoop(topo, cfg.spares, cfg.churn, runDone)
		}()
	} else {
		close(churnDone)
	}

	for c := 0; c < conns; c++ {
		quota := per
		if c == 0 {
			quota += cfg.totalOps % uint64(conns) // remainder rides on conn 0
		}
		wg.Add(1)
		go func(c int, quota uint64) {
			defer wg.Done()
			clu, err := cfg.client(topo)
			if err != nil {
				for i := uint64(0); i < quota; i++ {
					errs.note(err, false)
				}
				return
			}
			defer clu.Close()
			stream := newStream(cfg.dist, uint64(c)*2654435761+7, cfg.keys)
			rng := workload.NewRNG(uint64(c)*7919 + 3)
			sampler := bench.NewSampler(1 << 17)

			if !cfg.async {
				for done := uint64(0); done < quota; done++ {
					k := stream.Key()
					t0 := time.Now()
					var ok bool
					var err error
					if int(rng.Uint64n(100)) >= cfg.readPct {
						_, ok, err = clu.Put(k, rng.Next())
					} else {
						_, ok, err = clu.Get(k)
					}
					sampler.Add(time.Since(t0).Nanoseconds())
					// Every key is prepopulated and never deleted; a miss
					// is a replica that has not converged yet.
					errs.note(err, ok)
				}
				total.Add(quota)
				aggMu.Lock()
				agg.Merge(sampler)
				aggMu.Unlock()
				return
			}

			// Async: FIFO queues of send timestamps, matched to completions
			// by FIFO order. With a fixed ring the queue is per shard (the
			// pipe holds at most window+1 requests in flight per shard, so a
			// small ring suffices); under churn the key→shard mapping moves
			// mid-run, so the queue is per KEY — per-key completion order is
			// the guarantee that survives a ring flip.
			var stamp func(k uint64) // record send time for k
			var unstamp func(k uint64)
			var took func(k uint64) time.Time
			if topo != nil {
				perKey := make(map[uint64][]time.Time)
				stamp = func(k uint64) { perKey[k] = append(perKey[k], time.Now()) }
				unstamp = func(k uint64) { perKey[k] = perKey[k][:len(perKey[k])-1] }
				took = func(k uint64) time.Time {
					q := perKey[k]
					t0 := q[0]
					if len(q) == 1 {
						delete(perKey, k)
					} else {
						perKey[k] = q[1:]
					}
					return t0
				}
			} else {
				nsh := clu.NumShards()
				ring := make([][]time.Time, nsh)
				head := make([]int, nsh)
				tail := make([]int, nsh)
				cap := cfg.pipeline + 2
				for i := range ring {
					ring[i] = make([]time.Time, cap)
				}
				stamp = func(k uint64) {
					sh := clu.ShardFor(k)
					ring[sh][tail[sh]%cap] = time.Now()
					tail[sh]++
				}
				unstamp = func(k uint64) { tail[clu.ShardFor(k)]-- }
				took = func(k uint64) time.Time {
					sh := clu.ShardFor(k)
					t0 := ring[sh][head[sh]%cap]
					head[sh]++
					return t0
				}
			}
			var recvd uint64
			p, err := clu.Pipe(dlht.PipeOpts{Window: cfg.pipeline, OnComplete: func(cp dlht.Completion) {
				sampler.Add(time.Since(took(cp.Key)).Nanoseconds())
				errs.note(cp.Err, cp.OK)
				recvd++
			}})
			if err != nil {
				for i := uint64(0); i < quota; i++ {
					errs.note(err, false)
				}
				return
			}
			for sent := uint64(0); sent < quota; sent++ {
				k := stream.Key()
				stamp(k)
				if int(rng.Uint64n(100)) >= cfg.readPct {
					err = p.Put(k, rng.Next())
				} else {
					err = p.Get(k)
				}
				if err != nil {
					// The frame was never accepted: no completion will
					// come. Count the op once and keep going — the pipe
					// heals on redial.
					unstamp(k)
					errs.note(err, false)
				}
			}
			if err := p.Close(); err != nil {
				errs.note(err, false)
			}
			total.Add(recvd)
			aggMu.Lock()
			agg.Merge(sampler)
			aggMu.Unlock()
		}(c, quota)
	}
	wg.Wait()
	close(runDone)
	<-churnDone
	if churnN > 0 {
		fmt.Printf("churn: %d membership changes completed during run\n", churnN)
	}
	m := bench.Measurement{Ops: total.Load(), Elapsed: time.Since(begin)}
	return m, agg.Summary(), errs, churnErr
}
