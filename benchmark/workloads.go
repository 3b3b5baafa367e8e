package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	dlht "repro"
	"repro/internal/cluster"
	core "repro/internal/core"
)

// nWorkers is the generator goroutine count: the machine has two cores.
const nWorkers = 2

// workload is one named traffic mix and the stack it runs against. Why each
// is here is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// keysLog2 is the resident key count; -quick runs use quickKeysLog2.
	keysLog2 int
	dist     dist
	mix      mix
	window   int // in-flight bound per worker (per shard for the cluster)
	// loadWindow is the deeper window the set-up's pipelined Inserts use.
	loadWindow int
	// latStride samples one op in latStride for latency.
	latStride uint64
	// ownWrites gives each key one writer, ownReads one reader: the same
	// worker. seq numbers each key's Puts, checks every Put against the one
	// before and, after the run, reads every key back through a fresh
	// backend; it needs ownWrites and a backend whose Put returns the
	// previous value.
	ownWrites, ownReads, seq bool
	// crash kills the server under load after the measured phase and
	// restarts it on the same directory before the read-back.
	crash  bool
	target func() target
}

const quickKeysLog2 = 14

// netWindow is the in-flight bound per connection of the network workloads.
// At 16 a connection sends a window and sleeps until the reply wakes it, so
// throughput is 16 ops per wake-up and the run flips between two scheduler
// regimes (0.57 and 0.85 Mops/s, CPU per op 2.4 and 1.2 us) from one second
// to the next. At 128 both sides always have work queued, the two cores stay
// busy with the program and run-to-run spread falls from 24% to 8%.
const netWindow = 128

// target is the system a workload drives.
type target interface {
	// start brings up whatever hosts the table(s), sized for keys.
	start(sb *sandbox, keys uint64) error
	// open returns a new backend; each worker gets its own.
	open() (backend, error)
	// servers lists the processes hosting tables; empty means this one.
	servers() []*child
	// ordered reports whether completions arrive in enqueue order.
	ordered() bool
	stop()
}

var workloads = []workload{
	{
		name:     "mem_get",
		keysLog2: 22, dist: uniform, mix: mix{get: 100}, window: 16, loadWindow: 16, latStride: 256,
		target: func() target { return &memTarget{} },
	},
	{
		name:     "mem_churn",
		keysLog2: 22, dist: uniform, mix: mix{get: 50, put: 20, churn: 30}, window: 16, loadWindow: 16, latStride: 256,
		target: func() target { return &memTarget{} },
	},
	{
		name:     "tcp_kv",
		keysLog2: 20, dist: zipf, mix: mix{get: 95, put: 5}, window: netWindow, loadWindow: 128, latStride: 64,
		target: func() target { return &serverTarget{} },
	},
	{
		name:     "resp_kv",
		keysLog2: 20, dist: uniform, mix: mix{get: 90, put: 10}, window: netWindow, loadWindow: 128, latStride: 64,
		// RESP SET replaces a pair by delete-then-insert, so a GET racing it
		// from another connection can miss (seen once in 9·10^7 ops). That is
		// the server's to fix; until then each key stays on one connection so
		// that no op fails.
		ownWrites: true, ownReads: true,
		target: func() target { return &serverTarget{resp: true} },
	},
	{
		name:     "wal_tcp",
		keysLog2: 20, dist: uniform, mix: mix{get: 50, put: 50}, window: 8192, loadWindow: 1024, latStride: 64,
		ownWrites: true, seq: true, crash: true,
		target: func() target { return &serverTarget{durable: true} },
	},
	{
		name:     "cluster_r2",
		keysLog2: 20, dist: uniform, mix: mix{get: 50, put: 50}, window: netWindow, loadWindow: 128, latStride: 64,
		ownWrites: true, seq: true,
		target: func() target { return &clusterTarget{} },
	},
}

func (wl workload) genSpec(seed, keys uint64) genSpec {
	return genSpec{seed: seed, keys: keys, dist: wl.dist, mix: wl.mix, workers: nWorkers, ownWrites: wl.ownWrites, ownReads: wl.ownReads}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---------------------------------------------------------------------------
// Targets
// ---------------------------------------------------------------------------

// memTarget is an in-process table that starts at 2^16 bins, so loading it
// exercises the non-blocking resize.
type memTarget struct{ t *dlht.Table }

func (m *memTarget) start(*sandbox, uint64) error {
	t, err := dlht.New(dlht.Config{Bins: 1 << 16, Resizable: true})
	m.t = t
	return err
}
func (m *memTarget) open() (backend, error) { return m.t.Store() }
func (m *memTarget) servers() []*child      { return nil }
func (m *memTarget) ordered() bool          { return true }
func (m *memTarget) stop() {
	m.t = nil
	// Hand the table's memory back so the next set-up faults fresh pages
	// like the first one and RSS reflects one table.
	debug.FreeOSMemory()
}

// serverTarget is one dlht-server with default flags apart from -addr,
// -bins, -resp and -durable.
type serverTarget struct {
	resp, durable bool

	sb       *sandbox
	flags    []string
	c        *child
	respAddr string
}

func (s *serverTarget) start(sb *sandbox, keys uint64) error {
	s.sb = sb
	s.flags = []string{"-bins", fmt.Sprint(keys)}
	var also []string
	if s.resp {
		addr, err := freeAddr()
		if err != nil {
			return err
		}
		s.respAddr = addr
		s.flags = append(s.flags, "-resp", addr)
		also = []string{addr}
	}
	if s.durable {
		dir, err := filepath.Abs(filepath.Join(sb.dir, fmt.Sprintf("wal-%d", time.Now().UnixNano())))
		if err != nil {
			return err
		}
		s.flags = append(s.flags, "-durable", dir)
	}
	c, err := sb.spawn(also, s.flags...)
	s.c = c
	return err
}

// restart brings the server back on the same flags (and so the same WAL
// directory) after a kill, on a new port.
func (s *serverTarget) restart() (time.Duration, error) {
	t0 := time.Now()
	c, err := s.sb.spawn(nil, s.flags...)
	s.c = c
	return time.Since(t0), err
}

func (s *serverTarget) open() (backend, error) {
	if s.resp {
		return dialRESP(s.respAddr)
	}
	return dlht.Open("tcp://" + s.c.addr)
}
func (s *serverTarget) servers() []*child { return []*child{s.c} }
func (s *serverTarget) ordered() bool     { return true }
func (s *serverTarget) stop()             { s.sb.killAll() }

// clusterTarget is three servers behind one shared Topology at R=2, W=2.
type clusterTarget struct {
	sb   *sandbox
	cs   []*child
	topo *cluster.Topology
}

func (c *clusterTarget) start(sb *sandbox, keys uint64) error {
	c.sb = sb
	var addrs []string
	for i := 0; i < 3; i++ {
		ch, err := sb.spawn(nil, "-bins", fmt.Sprint(keys))
		if err != nil {
			return err
		}
		c.cs = append(c.cs, ch)
		addrs = append(addrs, ch.addr)
	}
	topo, err := dlht.DialTopology(addrs, dlht.ClusterOpts{Replicas: 2, WriteQuorum: 2})
	c.topo = topo
	return err
}
func (c *clusterTarget) open() (backend, error) { return c.topo.NewClient() }
func (c *clusterTarget) servers() []*child      { return c.cs }
func (c *clusterTarget) ordered() bool          { return false }
func (c *clusterTarget) stop() {
	if c.topo != nil {
		c.topo.Close()
	}
	c.sb.killAll()
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

// runOpts is what the command line fixes for a run.
type runOpts struct {
	seed    uint64
	seconds float64
	quick   bool
	sb      *sandbox
}

const (
	// sliceLen is the length of one measured slice. Every rate and timing
	// metric is the median over the run's slices, so a disturbance has to
	// last half the run to move it; -quick runs cut each instance's share
	// of their one second into quickSlices.
	sliceLen    = time.Second
	quickSlices = 2
	// nInstances is how many times a run sets the workload up and measures
	// it. setup_s is the median of the set-ups. The measured phase is shared
	// out between the instances because two server processes started from
	// one binary differ by about 5% in speed for as long as they live —
	// where their pages and threads landed — so the slices of one instance
	// agree with each other and not with the next run's.
	nInstances = 3
	// maxWarm caps an instance's untimed warm-up, a quarter of its share.
	maxWarm = time.Second
	// streamLen is each worker's materialised stream length; the run cycles
	// through it.
	streamLen      = 1 << 21
	quickStreamLen = 1 << 16
)

// result is one workload's run.
type result struct {
	workload  string
	attempted uint64
	failed    uint64
	metrics   []metric
	notes     []string
}

type metric struct {
	name  string
	unit  string
	value float64
}

// instance is a started, loaded target with its workers.
type instance struct {
	tg target
	ws []*worker
}

func (in *instance) close() {
	for _, w := range in.ws {
		w.be.Close()
		w.be = nil // a Store keeps its table reachable
	}
	in.tg.stop()
}

// setUp starts a target and loads it through pipelined Inserts from every
// worker, returning how long that took.
func setUp(wl workload, ks keyspace, streams []stream, sb *sandbox) (*instance, time.Duration, error) {
	t0 := time.Now()
	in := &instance{tg: wl.target()}
	if err := in.tg.start(sb, ks.n); err != nil {
		in.tg.stop()
		return nil, 0, err
	}
	errs := make([]error, nWorkers)
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		be, err := in.tg.open()
		if err != nil {
			in.close()
			return nil, 0, err
		}
		w := &worker{id: i, be: be, st: streams[i], chk: newChecker(ks, wl.seq)}
		in.ws = append(in.ws, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.load(ks, nWorkers, wl.loadWindow)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			in.close()
			return nil, 0, fmt.Errorf("load: %w", err)
		}
	}
	return in, time.Since(t0), nil
}

// runWorkload runs the workload on nInstances instances, one after the
// other: each is set up (timed), warmed up, measured for its share of the
// run, verified and torn down.
func runWorkload(wl workload, o runOpts) (result, error) {
	res := result{workload: wl.name}
	keysLog2, slen := wl.keysLog2, streamLen
	if o.quick {
		keysLog2, slen = min(keysLog2, quickKeysLog2), quickStreamLen
	}
	ks := newKeyspace(o.seed, 1<<keysLog2)
	gs := wl.genSpec(o.seed, ks.n)
	streams := make([]stream, nWorkers)
	for i := range streams {
		streams[i] = genStream(gs, i, slen)
	}
	live := ks.n
	for _, st := range streams {
		live += uint64(len(st.ring))
	}

	share := time.Duration(o.seconds * float64(time.Second) / nInstances)
	slice, nSlices := sliceLen, max(int(share/sliceLen), 1)
	if o.quick {
		slice, nSlices = share/quickSlices, quickSlices
	}
	var stats []sliceStat
	var setups, selfRSS []float64
	for rep := 0; rep < nInstances; rep++ {
		in, d, err := setUp(wl, ks, streams, o.sb)
		if err != nil {
			return res, err
		}
		setups = append(setups, d.Seconds())
		st, rss, err := runInstance(wl, in, ks, min(share/4, maxWarm), slice, nSlices, rep == nInstances-1, &res)
		in.close()
		if err != nil {
			return res, err
		}
		stats = append(stats, st...)
		if rss != 0 {
			selfRSS = append(selfRSS, float64(rss))
		}
	}

	var tput, p50, p90, p99, p999, cpu, rss []float64
	samples := 0
	var stolen, wall float64
	for _, s := range stats {
		tput = append(tput, float64(s.ops)/s.seconds/1e6)
		p50 = append(p50, percentile(s.lat, 0.50)/1e3)
		p90 = append(p90, percentile(s.lat, 0.90)/1e3)
		p99 = append(p99, percentile(s.lat, 0.99)/1e3)
		p999 = append(p999, percentile(s.lat, 0.999)/1e3)
		cpu = append(cpu, s.cpu/float64(max(s.ops, 1))*1e6)
		// A server's resident set rises and falls with its collector's
		// cycle; the median over the slice ends is its level.
		rss = append(rss, float64(s.rss))
		samples += len(s.lat)
		stolen += s.steal
		wall += s.seconds
	}
	var perInstance []float64
	for i := 0; i < len(tput); i += nSlices {
		perInstance = append(perInstance, median(tput[i:i+nSlices]))
	}
	resident := median(rss)
	if len(selfRSS) > 0 {
		resident = median(selfRSS)
	}
	for _, m := range []struct {
		name  string
		value float64
	}{
		{"throughput_mops", median(tput)},
		{"p50_us", median(p50)},
		{"p90_us", median(p90)},
		{"cpu_us_per_op", median(cpu)},
		{"mem_bytes_per_key", resident / float64(live)},
		{"setup_s", median(setups)},
	} {
		res.metrics = append(res.metrics, metric{m.name, endToEnd[m.name].unit, m.value})
	}
	res.notes = append(res.notes,
		fmt.Sprintf("latency samples: %d (1 op in %d); diagnostics: p99_us %.4g, p999_us %.4g", samples, wl.latStride, median(p99), median(p999)),
		fmt.Sprintf("slices Mops/s: %.4g", tput),
		fmt.Sprintf("instances Mops/s: %.4g", perInstance),
		fmt.Sprintf("slices p50: %.4g p90: %.4g", p50, p90),
		fmt.Sprintf("set-ups s: %.4g", setups),
		// Over about 2% the run measured the host's other guests too.
		fmt.Sprintf("host steal during the slices: %.2f%% of %d CPUs", 100*stolen/(wall*float64(runtime.NumCPU())), runtime.NumCPU()))
	return res, nil
}

// runInstance measures one loaded instance and verifies it: every
// completion as it arrives, every key read back where the workload numbers
// its Puts, and on the run's last instance, where the workload asks for it,
// across a kill -9 under load and a restart. It adds the ops to res and
// returns the slices and, for an in-process table, this process's resident
// bytes after the measured phase.
func runInstance(wl workload, in *instance, ks keyspace, warm, slice time.Duration, nSlices int, last bool, res *result) ([]sliceStat, uint64, error) {
	for _, w := range in.ws {
		w.lat = latSampler{stride: wl.latStride, ordered: in.tg.ordered()}
	}
	crash := wl.crash && last
	var selfRSS uint64
	stats, err := conduct(in.ws, in.tg.servers(), wl.window, warm, slice, nSlices, func() (bool, error) {
		if len(in.tg.servers()) > 0 {
			return crash, nil
		}
		// The table is in this process: collect the run's garbage and hand
		// freed pages back, so that what is resident is the table.
		debug.FreeOSMemory()
		var err error
		selfRSS, err = procRSS(selfPID)
		return false, err
	})
	if err != nil {
		return nil, 0, err
	}
	if crash {
		d, err := in.tg.(*serverTarget).restart()
		if err != nil {
			return nil, 0, fmt.Errorf("restart after kill: %w", err)
		}
		res.notes = append(res.notes, fmt.Sprintf("restart after kill -9 (recover + listen): %.3f s", d.Seconds()))
	}
	if wl.seq {
		a, f, err := readBack(in, ks, wl.loadWindow)
		if err != nil {
			return nil, 0, fmt.Errorf("read-back: %w", err)
		}
		res.attempted += a
		res.failed += f
	}
	for _, w := range in.ws {
		a, f := w.chk.finish()
		res.attempted += a
		res.failed += f
	}
	return stats, selfRSS, nil
}

// readBack reads every resident key through a fresh backend and requires
// the key's tag and a sequence between its writer's last acked and last
// issued Put.
func readBack(in *instance, ks keyspace, window int) (attempted, failed uint64, err error) {
	be, err := in.tg.open()
	if err != nil {
		return 0, 0, err
	}
	defer be.Close()
	p, err := be.Pipe(core.PipeOpts{Window: window, OnComplete: func(cp core.Completion) {
		attempted++
		i, _ := ks.index(cp.Key)
		chk := in.ws[i%nWorkers].chk
		seq := uint16(cp.Value)
		if cp.Err != nil || !cp.OK || !tagOK(cp.Key, cp.Value) || seq-chk.acked[i] > chk.issued[i]-chk.acked[i] {
			failed++
		}
	}})
	if err != nil {
		return 0, 0, err
	}
	for i := uint64(0); i < ks.n; i++ {
		if err := p.Get(ks.key(i)); err != nil {
			return attempted, failed, err
		}
	}
	if err := p.Close(); err != nil {
		return attempted, failed, err
	}
	failed += ks.n - attempted // completions that never arrived
	return ks.n, failed, nil
}
