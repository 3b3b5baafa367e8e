// Command dlht-loadgen drives DLHT servers with pipelined traffic and
// reports throughput, latency percentiles and availability. It first
// prepopulates the keyspace with INSERTs, then runs a mixed GET/PUT phase.
// Every backend is opened with dlht.Open and driven through the
// backend-independent Store surface: each connection worker enqueues into
// one Store.Pipe whose window is -pipeline and counts every op exactly once
// by its completion — the client-side mirror of the server's batch
// execution. -pipeline 1 is the request-at-a-time regime.
//
// Usage:
//
//	dlht-loadgen -addr localhost:4040 -conns 8 -pipeline 16 \
//	    -ops 1000000 -keys 100000 -read-pct 50 -dist uniform
//
// -addr host:port drives one dlht-server (a tcp:// Store per worker). With
// -embedded the loadgen starts an in-process dlht-server on a loopback
// port and drives that instead, making a single binary sufficient for
// end-to-end experiments — in particular sweeping -window (the table's
// prefetch window) against -pipeline (the client-side burst depth it
// feeds).
//
// With -addrs host:p1,host:p2,... the loadgen shards the keyspace across
// several dlht-server processes: each worker opens a consistent-hashed
// cluster: Store (one pipelined protocol-v2 connection per shard).
// -replicas R fans every write to R ring-successor shards, -write-quorum W
// acks once W have applied, and shard connections transparently redial
// with backoff.
//
// Errors never abort a worker — each op's outcome is counted and
// classified (retryable transport failures vs terminal refusals vs misses)
// and the run reports an availability line; -max-error-rate sets the
// tolerated percentage (default 0: any error fails the run). -verify
// re-reads the whole keyspace afterwards and fails on any missing key —
// the zero-lost-acked-writes check the failover smoke leans on.
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
		pipeline = flag.Int("pipeline", 16, "Store pipe window per connection: a request completes once this many newer ones are queued behind it (1 = request-at-a-time)")
		totalOps = flag.Uint64("ops", 1_000_000, "total measured operations across all connections")
		keys     = flag.Uint64("keys", 100_000, "prepopulated keyspace size")
		readPct  = flag.Int("read-pct", 50, "percentage of GETs (rest are PUTs)")
		dist     = flag.String("dist", "uniform", "key distribution: uniform|zipf|hot")
		skipLoad = flag.Bool("skip-load", false, "skip the INSERT prepopulation phase")
		embedded = flag.Bool("embedded", false, "start an in-process server on a loopback port (ignores -addr)")
		window   = flag.Int("window", 0, "embedded server's prefetch window (<=0 = default 16)")
		bins     = flag.Uint64("bins", 1<<18, "embedded server's initial bin count")

		replicas    = flag.Int("replicas", 0, "cluster mode: copies per key (0/1 = no replication)")
		writeQuorum = flag.Int("write-quorum", 0, "cluster mode: acks required per write (0 = replicas)")
		maxErrRate  = flag.Float64("max-error-rate", 0, "tolerated error percentage before exiting non-zero (0 = strict)")
		verify      = flag.Bool("verify", false, "after the run, read back every loaded key and fail on any missing")
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

	cfg := config{
		conns:       *conns,
		pipeline:    *pipeline,
		totalOps:    *totalOps,
		keys:        *keys,
		readPct:     *readPct,
		dist:        *dist,
		skipLoad:    *skipLoad,
		replicas:    *replicas,
		writeQuorum: *writeQuorum,
		maxErrRate:  *maxErrRate,
		verify:      *verify,
		churn:       *churn,
		spares:      splitNonEmpty(*spares),
	}
	switch {
	case *addrs != "":
		cfg.shards = strings.Split(*addrs, ",")
		cfg.spec = "cluster:" + *addrs
	case *embedded:
		tbl, err := dlht.New(dlht.Config{Bins: *bins, Resizable: true, MaxThreads: 4096, PrefetchWindow: *window})
		if err != nil {
			log.Fatal(err)
		}
		srv := server.New(tbl, server.Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		cfg.spec = "tcp://" + ln.Addr().String()
		fmt.Printf("embedded server on %s (bins=%d window=%d)\n", ln.Addr(), *bins, *window)
	default:
		cfg.spec = "tcp://" + *addr
	}
	if !run(cfg) {
		os.Exit(1)
	}
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

// config bundles a run's knobs. spec is the dlht.Open spec every worker
// opens (tcp://host:port or cluster:a,b,c); shards is the cluster's
// initial membership, nil for a single server.
type config struct {
	spec                  string
	shards                []string
	conns, pipeline       int
	totalOps, keys        uint64
	readPct               int
	dist                  string
	skipLoad              bool
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

func (cfg config) clusterOpts() dlht.ClusterOpts {
	return dlht.ClusterOpts{Replicas: cfg.replicas, WriteQuorum: cfg.writeQuorum}
}

// open opens one per-goroutine Store: an instance of the shared topology
// when there is one (churn), else the spec's backend.
func (cfg config) open(topo *dlht.Topology) (dlht.Store, error) {
	if topo != nil {
		return topo.NewClient()
	}
	return dlht.Open(cfg.spec, dlht.WithClusterOpts(cfg.clusterOpts()))
}

// errCounts classifies per-op failures. Retryable errors are transport
// blips the retry/failover machinery could not absorb in time, terminal
// errors are semantic refusals (protocol or table level), and misses are
// absent keys — under replication with W < R a read racing a failover
// can legitimately miss until the lagging replica converges.
type errCounts struct {
	retryable, terminal, miss atomic.Uint64
}

// note classifies one op outcome. ErrExists is success: a retried Insert
// finding its key (at-least-once delivery after an indeterminate failure)
// means the data is there.
func (e *errCounts) note(err error, ok bool) {
	switch {
	case err == nil && ok:
	case errors.Is(err, dlht.ErrExists):
	case err == nil:
		e.miss.Add(1)
	case server.IsRetryable(err):
		e.retryable.Add(1)
	default:
		e.terminal.Add(1)
	}
}

func (e *errCounts) total() uint64 {
	return e.retryable.Load() + e.terminal.Load() + e.miss.Load()
}

func (e *errCounts) String() string {
	return fmt.Sprintf("%d (retryable %d, terminal %d, missing %d)",
		e.total(), e.retryable.Load(), e.terminal.Load(), e.miss.Load())
}

// run loads, measures and (optionally) verifies, printing the report. It
// returns false when a gate failed: the error rate exceeded
// -max-error-rate, a membership change failed, or -verify found a loaded
// key missing. Transient errors are counted, not fatal.
func run(cfg config) bool {
	// With -churn the workers must share one membership view — ring flips
	// published by the churn goroutine reach every worker's next op — so
	// the run uses a shared Topology with one lazy instance per worker.
	var topo *dlht.Topology
	if cfg.churn > 0 {
		if len(cfg.shards) == 0 || len(cfg.spares) == 0 {
			log.Fatal("-churn needs -addrs shards and -spares addresses to cycle in and out")
		}
		var err error
		topo, err = dlht.DialTopology(cfg.shards, cfg.clusterOpts())
		if err != nil {
			log.Fatalf("dial topology: %v", err)
		}
		defer topo.Close()
	}
	if !cfg.skipLoad {
		// Prepopulate [0, keys), striped across workers. Insert completions
		// are the acks the -verify pass holds the backend to.
		per := (cfg.keys + uint64(cfg.conns) - 1) / uint64(cfg.conns)
		m, _, errs := drive(cfg, nil, func(c int) worker {
			lo := min(uint64(c)*per, cfg.keys)
			return worker{n: min(lo+per, cfg.keys) - lo, next: func(i uint64) dlht.Op {
				return dlht.Op{Kind: dlht.OpInsert, Key: lo + i, Value: (lo + i) ^ 0xdead}
			}}
		})
		if errs.total() > 0 {
			// The load phase seeds the verify oracle; it stays strict.
			log.Fatalf("load phase: errors: %v", errs)
		}
		fmt.Printf("loaded %d keys in %v (%.2f M inserts/s)\n", m.Ops, m.Elapsed.Round(time.Millisecond), m.MReqs())
	}
	rep := ""
	if cfg.replicas > 1 {
		rep = fmt.Sprintf(", R=%d W=%d", cfg.replicas, cfg.writeQuorum)
	}
	fmt.Printf("run: %d ops over %d conns on %s (%d%% GET / %d%% PUT, %s keys, window %d%s)\n",
		cfg.totalOps, cfg.conns, cfg.spec, cfg.readPct, 100-cfg.readPct, cfg.dist, cfg.pipeline, rep)

	var churnErr error
	churnN := 0
	churnDone := make(chan struct{})
	runDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		if topo != nil {
			churnN, churnErr = churnLoop(topo, cfg.spares, cfg.churn, runDone)
		}
	}()
	// Every key is prepopulated and never deleted, so GET and PUT must both
	// hit; a miss is a replica that has not converged yet.
	m, lat, errs := drive(cfg, topo, func(c int) worker {
		n := cfg.totalOps / uint64(cfg.conns)
		if c == 0 {
			n += cfg.totalOps % uint64(cfg.conns) // remainder rides on conn 0
		}
		stream := newStream(cfg.dist, uint64(c)*2654435761+7, cfg.keys)
		rng := workload.NewRNG(uint64(c)*7919 + 3)
		return worker{n: n, next: func(uint64) dlht.Op {
			k := stream.Key()
			if int(rng.Uint64n(100)) >= cfg.readPct {
				return dlht.Op{Kind: dlht.OpPut, Key: k, Value: rng.Next()}
			}
			return dlht.Op{Kind: dlht.OpGet, Key: k}
		}}
	})
	close(runDone)
	<-churnDone
	if churnN > 0 {
		fmt.Printf("churn: %d membership changes completed during run\n", churnN)
	}

	fmt.Printf("throughput: %.2f M reqs/s (%d ops in %v)\n",
		m.MReqs(), m.Ops, m.Elapsed.Round(time.Millisecond))
	fmt.Println(lat)
	nerr := errs.total()
	rate := 0.0
	if cfg.totalOps > 0 {
		rate = float64(nerr) / float64(cfg.totalOps) * 100
	}
	fmt.Printf("errors: %v\n", errs)
	fmt.Printf("availability: %.4f%% (%d/%d ops acked)\n", 100-rate, cfg.totalOps-nerr, cfg.totalOps)

	ok := rate <= cfg.maxErrRate && (nerr == 0 || cfg.maxErrRate > 0)
	if topo != nil {
		fmt.Printf("reshard: moved %d keys (epoch %d)\n", topo.MovedKeys(), topo.Epoch())
		if churnErr != nil {
			fmt.Printf("reshard: FAILED: %v\n", churnErr)
			ok = false
		}
	}
	if cfg.verify {
		missing := verifyKeys(cfg, topo)
		fmt.Printf("verify: %d/%d loaded keys present, %d missing\n", cfg.keys-missing, cfg.keys, missing)
		if missing > 0 {
			ok = false
		}
	}
	return ok
}

// verifyKeys reads back every loaded key through one Store and returns how
// many are missing — acked inserts that survived neither any replica nor
// its WAL. Under churn the check rides the shared topology: the final ring
// may include spares.
func verifyKeys(cfg config, topo *dlht.Topology) uint64 {
	s, err := cfg.open(topo)
	if err != nil {
		log.Fatalf("verify: dial: %v", err)
	}
	defer s.Close()
	var missing uint64
	for k := uint64(0); k < cfg.keys; k++ {
		if _, ok, err := s.Get(k); err != nil || !ok {
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

// worker is one connection's share of a phase: n ops, the i-th given by
// next (Kind, Key and Value).
type worker struct {
	n    uint64
	next func(i uint64) dlht.Op
}

// drive runs one phase: each of -conns workers opens its own Store and
// enqueues its ops into one Pipe with -pipeline as the window. Every op
// counts exactly once, classified — by its completion, or by the enqueue
// error when the pipe never accepted it — so a mid-run shard kill shows up
// as an availability dip (and failover latency in the tail percentiles)
// instead of a dead run.
//
// Per-op latency is tracked through per-KEY FIFOs of enqueue times: every
// backend completes one key's ops in program order — a single connection
// answers in request order, a cluster pipe in per-primary order, and under
// churn per-key order is the invariant that survives a ring flip.
func drive(cfg config, topo *dlht.Topology, mk func(c int) worker) (bench.Measurement, bench.LatencySummary, *errCounts) {
	var total atomic.Uint64
	errs := &errCounts{}
	agg := bench.NewSampler(1 << 20)
	var aggMu sync.Mutex
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < cfg.conns; c++ {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			// failAll counts the worker's whole share against err.
			failAll := func(err error) {
				for i := uint64(0); i < w.n; i++ {
					errs.note(err, false)
				}
			}
			s, err := cfg.open(topo)
			if err != nil {
				failAll(err)
				return
			}
			defer s.Close()
			sampler := bench.NewSampler(1 << 17)
			sent := make(map[uint64][]time.Time)
			var recvd uint64
			p, err := s.Pipe(dlht.PipeOpts{Window: cfg.pipeline, OnComplete: func(cp dlht.Completion) {
				q := sent[cp.Key]
				sampler.Add(time.Since(q[0]).Nanoseconds())
				if len(q) == 1 {
					delete(sent, cp.Key)
				} else {
					sent[cp.Key] = q[1:]
				}
				errs.note(cp.Err, cp.OK)
				recvd++
			}})
			if err != nil {
				failAll(err)
				return
			}
			for i := uint64(0); i < w.n; i++ {
				op := w.next(i)
				// Stamp before the enqueue: the completion may fire inside it.
				sent[op.Key] = append(sent[op.Key], time.Now())
				switch op.Kind {
				case dlht.OpGet:
					err = p.Get(op.Key)
				case dlht.OpPut:
					err = p.Put(op.Key, op.Value)
				default:
					err = p.Insert(op.Key, op.Value)
				}
				if err != nil {
					// The request was never accepted: no completion will
					// come. Count the op once and keep going — the pipe
					// heals on redial.
					sent[op.Key] = sent[op.Key][:len(sent[op.Key])-1]
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
		}(mk(c))
	}
	wg.Wait()
	return bench.Measurement{Ops: total.Load(), Elapsed: time.Since(begin)}, agg.Summary(), errs
}
