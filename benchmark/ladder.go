package main

import (
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	dlht "repro"
	"repro/internal/cluster"
	core "repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expiry"
	"repro/internal/resp"
	"repro/internal/server"
	"repro/internal/wal"
)

// The layer ladder: the rungs a traced run climbs, and the per-layer
// metrics it derives from them. See README.md for the table of rungs.

const (
	// ladderWindow is the in-flight bound of every pipelined rung.
	ladderWindow = 16
	// ladderHandles is the handle budget of the ladder's tables: the rungs'
	// own handles plus an executor's, with room to spare.
	ladderHandles = 64

	// Op counts, sized so the ladder takes about as long as an untraced
	// run; -quick divides them by quickRungScale. The stack's stream is
	// ladderStreamLen ops and every rung above core replays it a whole
	// number of times, so each starts from the table state the cyclic
	// stream expects.
	coreRungOps      = 2 << 20
	ladderStreamLen  = 1 << 17
	stackCycles      = 4
	netCycles        = 2
	overheadPairs    = 16
	syncRounds       = 100
	syncBatch        = 256
	maxStackKeysLog2 = 20
	quickRungScale   = 16
)

// ladder is one traced run's state.
type ladder struct {
	t       *tracer
	wl      workload
	seed    uint64
	scale   int
	dir     string   // scratch directory for the WAL rungs
	ks      keyspace // the workload's key set: core rungs
	sks     keyspace // the stack's key set: at most 2^20 of it
	ops     []op     // the workload's stream over sks
	flat    []op     // ops with its churn slots turned into Gets: no state, so any prefix replays
	load    []op     // Inserts of every stack key and the stream's pre-live fresh keys
	metrics []metric

	memNs float64 // Store.Pipe rung: the floor under exec and wal
	tcpNs float64 // binary loopback rung: what RESP is compared with
}

func (l *ladder) put(name, unit string, v float64) {
	l.metrics = append(l.metrics, metric{name, unit, v})
}

// cycles returns the op count of n passes over the stack's stream.
func (l *ladder) cycles(n int) int { return n * len(l.ops) }

// replay is a best-of-two replay of n ops of the stack's stream through be.
func (l *ladder) replay(name string, be backend, n int) (rungStat, error) {
	return best(func() (rungStat, error) { return l.t.replay(name, be, l.sks, l.ops, n) })
}

// runTrace runs the ladder for one workload and writes its spans.
func runTrace(wl workload, o runOpts, root string) (result, error) {
	keysLog2, scale := wl.keysLog2, 1
	if o.quick {
		keysLog2, scale = min(keysLog2, quickKeysLog2), quickRungScale
	}
	l := &ladder{
		t:     newTracer(wl.name),
		wl:    wl,
		seed:  o.seed,
		scale: scale,
		dir:   o.sb.dir,
		ks:    newKeyspace(o.seed, 1<<keysLog2),
		sks:   newKeyspace(o.seed, 1<<min(keysLog2, maxStackKeysLog2)),
	}
	st := genStream(wl.genSpec(o.seed, l.sks.n), 0, ladderStreamLen/scale)
	l.ops = st.ops
	l.flat = slices.Clone(st.ops)
	for i, o := range l.flat {
		if _, resident := l.sks.index(o.key); !resident {
			l.flat[i] = op{core.OpGet, l.sks.key(uint64(i) % l.sks.n)}
		}
	}
	for i := uint64(0); i < l.sks.n; i++ {
		l.load = append(l.load, op{core.OpInsert, l.sks.key(i)})
	}
	for _, k := range st.ring {
		l.load = append(l.load, op{core.OpInsert, k})
	}

	for _, step := range []func() error{l.coreRungs, l.binaryRungs, l.respRungs, l.walRungs, l.clusterRungs} {
		if err := step(); err != nil {
			return result{}, err
		}
		// The step's tables are garbage now; the next should not pay for
		// collecting them.
		runtime.GC()
	}
	path := filepath.Join(root, "trace-"+wl.name+".json")
	if err := l.t.write(path); err != nil {
		return result{}, err
	}
	return result{
		workload: wl.name, attempted: l.t.attempted, failed: l.t.failed, metrics: l.metrics,
		notes: []string{fmt.Sprintf("%d spans written to %s", len(l.t.spans), path)},
	}, nil
}

// coreRungs: populate, then direct Handle ops, then the Pipeline, on a
// table of the workload's own key count that starts at 2^16 bins.
func (l *ladder) coreRungs() error {
	t, err := dlht.New(dlht.Config{Bins: 1 << 16, Resizable: true})
	if err != nil {
		return err
	}
	h := t.MustHandle()
	defer h.Close()
	chk := newChecker(l.ks, false)
	defer l.t.count(chk)
	onc := func(o *dlht.Op) {
		chk.complete(core.Completion{Kind: o.Kind, Key: o.Key, Value: o.Result, OK: o.OK, Err: o.Err})
	}

	// One loader, so the resize count and keys moved repeat exactly.
	pl := h.Pipeline(dlht.PipelineOpts{Window: ladderWindow, OnComplete: onc})
	st, err := l.t.rung("core.populate", int(l.ks.n), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			k := l.ks.key(uint64(i))
			chk.issuedOps++
			pl.Insert(k, valueOf(k, 0))
		}
		return nil
	}, func() error { pl.Flush(); return nil })
	if err != nil {
		return err
	}
	ts := t.Stats()
	l.put("core.populate_mops", "Mops/s", 1e3/st.ns)
	l.put("core.resizes", "count", float64(ts.Resizes))
	l.put("core.keys_moved", "count", float64(ts.KeysMoved))
	l.put("core.occupancy_pct", "%", ts.Occupancy*100)
	l.put("core.links_used", "count", float64(ts.LinksUsed))

	// The core rungs read the workload's key distribution over its full key
	// set; the stack's short stream would keep them cache-resident.
	n := coreRungOps / l.scale
	gets := genStream(genSpec{seed: l.seed, keys: l.ks.n, dist: l.wl.dist, mix: mix{get: 100}, workers: 1}, 0, n).ops
	direct := func(name string, f func(k uint64, i int) (uint64, bool)) (rungStat, error) {
		return l.t.rung(name, n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				k := gets[i].key
				v, ok := f(k, i)
				chk.issuedOps++
				chk.complete(core.Completion{Kind: core.OpGet, Key: k, Value: v, OK: ok})
			}
			return nil
		}, nil)
	}
	get, err := direct("core.get", func(k uint64, _ int) (uint64, bool) { return h.Get(k) })
	if err != nil {
		return err
	}
	put, err := direct("core.put", func(k uint64, i int) (uint64, bool) { return h.Put(k, valueOf(k, uint16(i))) })
	if err != nil {
		return err
	}
	// Delete the key inserted churnLive inserts ago, insert a fresh one: the
	// two never touch a line the other just loaded.
	fresh := genStream(genSpec{seed: l.seed, keys: l.ks.n, mix: mix{churn: 100}, workers: 1}, 0, n)
	for _, k := range fresh.ring {
		if _, err := h.Insert(k, valueOf(k, 0)); err != nil {
			return err
		}
	}
	insdel, err := l.t.rung("core.insdel", n, func(lo, hi int) error {
		for _, o := range fresh.ops[lo:hi] {
			chk.issuedOps++
			cp := core.Completion{Kind: o.kind, Key: o.key}
			if o.kind == core.OpInsert {
				_, cp.Err = h.Insert(o.key, valueOf(o.key, 0))
				cp.OK = cp.Err == nil
			} else {
				cp.Value, cp.OK = h.Delete(o.key)
			}
			chk.complete(cp)
		}
		return nil
	}, nil)
	if err != nil {
		return err
	}
	pl = h.Pipeline(dlht.PipelineOpts{Window: ladderWindow, OnComplete: onc})
	pipe, err := l.t.rung("core.pipeline", n, func(lo, hi int) error {
		for _, o := range gets[lo:hi] {
			chk.issuedOps++
			pl.Get(o.key)
		}
		return nil
	}, func() error { pl.Flush(); return nil })
	if err != nil {
		return err
	}
	l.put("core.get_ns", "ns", get.ns)
	l.put("core.put_ns", "ns", put.ns)
	l.put("core.insdel_ns", "ns", insdel.ns)
	l.put("core.pipeline_ns", "ns", pipe.ns)
	l.put("core.pipeline_gain", "ratio", get.ns/pipe.ns)
	return nil
}

// stackTable returns a table shaped like a dlht-server's (-bins = keys)
// holding the stack's resident keys and the stream's pre-live fresh keys.
func (l *ladder) stackTable() (*dlht.Table, error) {
	t, err := dlht.New(dlht.Config{Bins: l.sks.n, Resizable: true, MaxThreads: ladderHandles})
	if err != nil {
		return nil, err
	}
	h := t.MustHandle()
	defer h.Close()
	for _, o := range l.load {
		if _, err := h.Insert(o.key, valueOf(o.key, 0)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// binaryRungs: Store.Pipe (the mem rung), exec.Session, binary v2 over
// net.Pipe, the client alone against a stub, and loopback TCP with the
// counting wrappers on and off.
func (l *ladder) binaryRungs() error {
	tbl, err := l.stackTable()
	if err != nil {
		return err
	}
	s, err := tbl.Store()
	if err != nil {
		return err
	}
	mem, err := l.replay("mem.pipe", s, l.cycles(stackCycles))
	s.Close()
	if err != nil {
		return err
	}
	l.memNs = mem.ns

	sess, err := best(func() (rungStat, error) { return l.sessionRung(tbl) })
	if err != nil {
		return err
	}
	l.put("exec.hop_ns", "ns", sess.ns-mem.ns)
	l.put("exec.allocs_per_op", "allocs", sess.mallocs)

	// Binary v2 over net.Pipe: codec and connection loops, no kernel.
	n := l.cycles(netCycles)
	npipe, err := best(func() (rungStat, error) {
		srv := server.New(tbl, server.Options{})
		defer srv.Close()
		pln := newPipeListener()
		go srv.Serve(pln)
		conn, err := pln.dial()
		if err != nil {
			return rungStat{}, err
		}
		return l.clientRung("server.netpipe", conn, l.ops, n)
	})
	if err != nil {
		return err
	}
	// The client alone, against a stub that answers every frame OK.
	stub, err := best(func() (rungStat, error) { return l.stubRung(n) })
	if err != nil {
		return err
	}
	l.put("server.codec_ns", "ns", npipe.ns-sess.ns)
	l.put("server.allocs_per_op", "allocs", npipe.mallocs-stub.mallocs-sess.mallocs)
	l.put("server.bytes_per_op", "bytes", npipe.bytes-stub.bytes-sess.bytes)
	l.put("client.allocs_per_op", "allocs", stub.mallocs)

	// Loopback TCP, with the counting wrappers under both ends.
	var sc, cc ioCounts
	tcpOps := 0
	tcpPass := func(on bool, ops []op, n int) (rungStat, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rungStat{}, err
		}
		srv := server.New(tbl, server.Options{})
		defer srv.Close()
		name, sln := "server.tcp-bare", ln
		if on {
			name, sln = "server.tcp", countListener{ln, &sc}
			tcpOps += n
		}
		go srv.Serve(sln)
		conn, err := server.DialTCP(ln.Addr().String(), 0)
		if err != nil {
			return rungStat{}, err
		}
		if on {
			conn = countConn{conn, &cc}
		}
		return l.clientRung(name, conn, ops, n)
	}
	tcp, err := best(func() (rungStat, error) { return tcpPass(true, l.ops, l.cycles(1)) })
	if err != nil {
		return err
	}
	l.tcpNs = tcp.ns
	// What the wrappers cost: many short pairs of passes, one with and one
	// without them, in alternating order, and the median of the pairs'
	// ratios — neighbours in time share the machine's mood. The pairs use
	// the stream without its churn slots, so a pass may stop anywhere.
	var ratios []float64
	for pair := 0; pair < overheadPairs; pair++ {
		var ns [2]float64 // bare, traced
		for _, on := range []bool{pair%2 == 0, pair%2 != 0} {
			st, err := tcpPass(on, l.flat, len(l.flat)/4)
			if err != nil {
				return err
			}
			if on {
				ns[1] = st.ns
			} else {
				ns[0] = st.ns
			}
		}
		ratios = append(ratios, ns[1]/ns[0])
	}
	l.put("server.read_calls_per_kop", "calls", perKop(sc.reads.Load(), tcpOps))
	l.put("server.write_calls_per_kop", "calls", perKop(sc.writes.Load(), tcpOps))
	l.put("server.wire_bytes_per_op", "bytes", float64(sc.bytes.Load())/float64(tcpOps))
	l.put("client.read_calls_per_kop", "calls", perKop(cc.reads.Load(), tcpOps))
	l.put("client.write_calls_per_kop", "calls", perKop(cc.writes.Load(), tcpOps))
	l.put("net.loopback_ns", "ns", tcp.ns-npipe.ns)
	l.put("trace.overhead_pct", "%", (median(ratios)-1)*100)
	return nil
}

// clientRung replays n ops through a protocol-v2 client on conn.
func (l *ladder) clientRung(name string, conn net.Conn, ops []op, n int) (rungStat, error) {
	cl, err := server.NewClientV2(conn, server.ClientOpts{})
	if err != nil {
		conn.Close()
		return rungStat{}, err
	}
	defer cl.Close()
	return l.t.replay(name, cl, l.sks, ops, n)
}

// sessionRung drives an exec.Session the way a connection does at window
// 16: submit a burst of ladderWindow ops, await its completions, repeat.
func (l *ladder) sessionRung(tbl *dlht.Table) (rungStat, error) {
	ex, err := exec.New(tbl, exec.Options{})
	if err != nil {
		return rungStat{}, err
	}
	defer ex.Close()
	sess, err := ex.NewSession()
	if err != nil {
		return rungStat{}, err
	}
	defer sess.FinishSubmit()
	chk := newChecker(l.sks, false)
	defer l.t.count(chk)
	batch := make([]core.Op, 0, ladderWindow)
	var done []exec.Done
	return l.t.rung("exec.session", l.cycles(stackCycles), func(lo, hi int) error {
		for lo < hi {
			batch = batch[:0]
			for ; lo < hi && len(batch) < ladderWindow; lo++ {
				o := l.ops[lo%len(l.ops)]
				op := core.Op{Kind: o.kind, Key: o.key}
				switch o.kind {
				case core.OpPut:
					op.Value = chk.putValue(o.key, uint64(lo))
				case core.OpInsert:
					op.Value = valueOf(o.key, 0)
				}
				batch = append(batch, op)
			}
			chk.issuedOps += uint64(len(batch))
			if err := sess.SubmitBatch(batch); err != nil {
				return err
			}
			for got := 0; got < len(batch); got += len(done) {
				var ok bool
				if done, ok = sess.Await(done[:0], nil); !ok {
					return fmt.Errorf("session finished early")
				}
				for _, d := range done {
					chk.complete(core.Completion{Kind: d.Op.Kind, Key: d.Op.Key, Value: d.Op.Result, OK: d.Op.OK, Err: d.Op.Err})
				}
			}
		}
		return nil
	}, nil)
}

// stubRung runs the binary client against a goroutine that speaks just
// enough protocol v2 to answer every fixed frame with StatusOK and a value
// carrying the key's tag, allocating nothing: what is left is the client.
func (l *ladder) stubRung(n int) (rungStat, error) {
	c, s := net.Pipe()
	stubErr := make(chan error, 1)
	go func() { stubErr <- stubServe(s) }()
	st, err := l.clientRung("client.stub", c, l.ops, n)
	if serr := <-stubErr; err == nil && serr != nil {
		err = fmt.Errorf("client.stub: %w", serr)
	}
	return st, err
}

func stubServe(c net.Conn) error {
	defer c.Close()
	buf := make([]byte, 64<<10)
	n, err := c.Read(buf)
	if err != nil {
		return err
	}
	hello, used, err := server.DecodeHello(buf[:n])
	if err != nil || used != n {
		return fmt.Errorf("stub: bad hello: %v", err)
	}
	if _, err := c.Write(server.AppendHelloResp(nil, server.HelloResp{Status: server.StatusOK, Version: server.ProtocolV2, Features: hello.Features})); err != nil {
		return err
	}
	out := make([]byte, 0, 64<<10)
	have := 0
	for {
		n, err := c.Read(buf[have:])
		if err == io.EOF || err == io.ErrClosedPipe {
			return nil
		}
		if err != nil {
			return err
		}
		have += n
		out = out[:0]
		off := 0
		for ; have-off >= server.ReqSize; off += server.ReqSize {
			req, err := server.DecodeRequest(buf[off : off+server.ReqSize])
			if err != nil {
				return err
			}
			out = server.AppendResponse(out, server.Response{Status: server.StatusOK, Result: valueOf(req.Key, 0)})
		}
		have = copy(buf, buf[off:have])
		if len(out) == 0 {
			continue
		}
		if _, err := c.Write(out); err != nil {
			return err
		}
	}
}

// respRungs: the KVPipeline on the RESP table shape, then resp.Client ↔
// resp.Serve over net.Pipe and over loopback TCP.
func (l *ladder) respRungs() error {
	tbl, err := dlht.New(dlht.Config{Bins: l.sks.n, Resizable: true, MaxThreads: ladderHandles, Mode: dlht.Allocator, VariableKV: true, Namespaces: true, EpochGC: true})
	if err != nil {
		return err
	}
	h := tbl.MustHandle()
	defer h.Close()
	var kb [respKeyLen]byte
	var vb [respValLen]byte
	for i := uint64(0); i < l.sks.n; i++ {
		k := l.sks.key(i)
		if err := h.InsertKV(0, respKey(&kb, k), respVal(&vb, valueOf(k, 0))); err != nil {
			return err
		}
	}

	// RESP has no exact counterpart for the churn slots: it gets the stream
	// without them.
	ops := l.flat

	n := l.cycles(stackCycles)
	chk := newChecker(l.sks, false)
	// Keys must outlive their lookups: at most ladderWindow are in flight,
	// so an arena of twice that can wrap without overwriting one.
	keyArena := make([]byte, 0, respKeyLen*(2*ladderWindow))
	var inflight []uint64 // keys of in-flight Gets, oldest at head
	head := 0
	kvp := h.KVPipeline(dlht.KVPipelineOpts{Window: ladderWindow, OnComplete: func(g *dlht.KVGet) {
		k := inflight[head]
		if head++; head == len(inflight) {
			inflight, head = inflight[:0], 0
		}
		v, ok := respWord(g.Value)
		chk.complete(core.Completion{Kind: core.OpGet, Key: k, Value: v, OK: g.OK && ok})
	}})
	// kvRung runs the stream through the KVPipeline: Gets stream, Puts are
	// barriers.
	kvRung := func(name string, getsOnly bool) (rungStat, error) {
		return best(func() (rungStat, error) {
			return l.t.rung(name, n, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					o := ops[i%len(ops)]
					chk.issuedOps++
					if o.kind == core.OpGet || getsOnly {
						if len(keyArena)+respKeyLen > cap(keyArena) {
							keyArena = keyArena[:0]
						}
						keyArena = append(keyArena, respKey(&kb, o.key)...)
						inflight = append(inflight, o.key)
						kvp.Get(0, keyArena[len(keyArena)-respKeyLen:])
						continue
					}
					v := valueOf(o.key, uint16(i))
					err := kvp.Put(0, respKey(&kb, o.key), respVal(&vb, v))
					chk.complete(core.Completion{Kind: core.OpPut, Key: o.key, Value: v, OK: err == nil, Err: err})
				}
				return nil
			}, func() error { kvp.Flush(); return nil })
		})
	}
	kvGet, err := kvRung("core.kv_get", true)
	if err != nil {
		return err
	}
	kvMix, err := kvRung("mem.kv_pipe", false)
	if err != nil {
		return err
	}
	kvp.Close()
	l.t.count(chk)
	l.put("core.kv_get_ns", "ns", kvGet.ns)

	serve := func(c net.Conn) {
		sh := tbl.MustHandle()
		defer sh.Close()
		defer c.Close()
		resp.Serve(c, resp.ServeOpts{Table: tbl, Handle: sh, Expiry: expiry.New(nil)})
	}
	n = l.cycles(netCycles)
	npipe, err := best(func() (rungStat, error) {
		c, s := net.Pipe()
		go serve(s)
		rs := newRESPStore(c)
		defer rs.Close()
		return l.t.replay("resp.netpipe", rs, l.sks, ops, n)
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var sc ioCounts
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(countConn{c, &sc})
		}
	}()
	tcp, err := best(func() (rungStat, error) {
		rs, err := dialRESP(ln.Addr().String())
		if err != nil {
			return rungStat{}, err
		}
		defer rs.Close()
		return l.t.replay("resp.tcp", rs, l.sks, ops, n)
	})
	if err != nil {
		return err
	}
	l.put("resp.codec_ns", "ns", npipe.ns-kvMix.ns)
	l.put("resp.allocs_per_op", "allocs", npipe.mallocs-kvMix.mallocs)
	l.put("resp.read_calls_per_kop", "calls", perKop(sc.reads.Load(), 2*n))
	l.put("resp.write_calls_per_kop", "calls", perKop(sc.writes.Load(), 2*n))
	l.put("resp.wire_bytes_per_op", "bytes", float64(sc.bytes.Load())/float64(2*n))
	l.put("resp.vs_binary_ratio", "ratio", tcp.ns/l.tcpNs)
	return nil
}

// walRungs: wal.Store.Pipe over the same stream, the group-commit wait at
// 256 records per sync, the directory's size and a timed reopen.
func (l *ladder) walRungs() error {
	dir := filepath.Join(l.dir, "ladder-wal")
	defer os.RemoveAll(dir)
	cfg := dlht.Config{Bins: l.sks.n, Resizable: true, MaxThreads: ladderHandles}
	ws, err := wal.Open(dir, cfg, wal.Options{})
	if err != nil {
		return err
	}
	// Whichever store is open when this returns is closed; a nil ws marks
	// the stretch in between.
	defer func() {
		if ws != nil {
			ws.Close()
		}
	}()
	// Load through the durable pipe: recovery below replays these records.
	if _, err := l.t.replay("wal.load", ws, l.sks, l.load, len(l.load)); err != nil {
		return err
	}

	n := l.cycles(stackCycles)
	before := ws.Log().Appended()
	st, err := l.replay("wal.pipe", ws, n)
	if err != nil {
		return err
	}
	l.put("wal.commit_ns", "ns", st.ns-l.memNs)
	l.put("wal.log_bytes_per_op", "bytes", float64(ws.Log().Appended()-before)/float64(2*n))

	// Group commit from the appender's side: append a batch, wait for the
	// fsync that covers it.
	log := ws.Log()
	rounds := max(syncRounds/l.scale, 10)
	waits := make([]int64, 0, rounds)
	id := l.t.begin("wal.sync_wait", 0)
	for r := 0; r < rounds; r++ {
		var seq uint64
		for i := 0; i < syncBatch; i++ {
			k := l.sks.key(uint64(r*syncBatch+i) % l.sks.n)
			o := core.Op{Kind: core.OpPut, Key: k, Value: valueOf(k, 0), OK: true}
			if seq, err = log.LogOp(&o); err != nil {
				return err
			}
		}
		b := l.t.begin("wal.sync_wait", id)
		t0 := time.Now()
		if err := log.SyncWait(seq); err != nil {
			return err
		}
		waits = append(waits, time.Since(t0).Nanoseconds())
		l.t.end(b, syncBatch)
	}
	l.t.end(id, rounds*syncBatch)
	slices.Sort(waits)
	l.put("wal.sync_wait_us_p50", "us", percentile(waits, 0.50)/1e3)
	l.put("wal.sync_wait_us_p99", "us", percentile(waits, 0.99)/1e3)

	err = ws.Close()
	ws = nil
	if err != nil {
		return err
	}
	var size int64
	err = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	l.put("wal.dir_bytes_per_key", "bytes", float64(size)/float64(l.sks.n))

	id = l.t.begin("wal.recover", 0)
	t0 := time.Now()
	ws, err = wal.Open(dir, cfg, wal.Options{})
	d := time.Since(t0)
	l.t.end(id, int(l.sks.n))
	if err != nil {
		ws = nil
		return fmt.Errorf("wal.recover: %w", err)
	}
	l.put("wal.recover_s", "s", d.Seconds())
	// The recovered table must answer the stream like the original did.
	_, err = l.t.replay("wal.recovered", ws, l.sks, l.ops, l.cycles(1))
	return err
}

// clusterRungs: cluster.New over three recording in-process shards at R=1
// and at R=2/W=2. The cluster's self time is its rung minus a replay of
// exactly the shard requests it made.
func (l *ladder) clusterRungs() error {
	n := l.cycles(stackCycles)
	var self [3]float64
	for _, r := range []int{1, 2} {
		var calls []shardCall
		var tables []*dlht.Table
		names := []string{"shard-a", "shard-b", "shard-c"}
		stores := make([]core.Store, len(names))
		for i := range names {
			t, err := dlht.New(dlht.Config{Bins: l.sks.n, Resizable: true, MaxThreads: ladderHandles})
			if err != nil {
				return err
			}
			s, err := t.Store()
			if err != nil {
				return err
			}
			tables = append(tables, t)
			stores[i] = recStore{s, i, &calls}
		}
		c, err := cluster.New(names, stores, cluster.Opts{Window: ladderWindow, Replicas: r, WriteQuorum: r})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("cluster.r%d", r)
		if _, err := l.t.replay(name+".load", c, l.sks, l.load, len(l.load)); err != nil {
			c.Close()
			return err
		}
		st, err := best(func() (rungStat, error) {
			calls = make([]shardCall, 0, 2*n)
			return l.t.replay(name, c, l.sks, l.ops, n)
		})
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		// The child span: the recorded shard requests, replayed in order on
		// fresh pipes of the same tables (the stream is cyclic, so they are
		// as valid now as the first time).
		child, err := best(func() (rungStat, error) { return l.shardReplay(name+".shards", tables, calls) })
		if err != nil {
			return err
		}
		perOp := float64(len(calls)) / float64(n)
		self[r] = st.ns - child.ns*perOp
		if r == 2 {
			l.put("cluster.shard_ops_per_op", "ratio", perOp)
			l.put("cluster.allocs_per_op", "allocs", st.mallocs-child.mallocs*perOp)
		}
	}
	l.put("cluster.route_ns", "ns", self[1])
	l.put("cluster.fanout_ns", "ns", self[2]-self[1])
	return nil
}

// shardReplay issues recorded shard requests straight into the tables'
// own pipes.
func (l *ladder) shardReplay(name string, tables []*dlht.Table, calls []shardCall) (rungStat, error) {
	pipes := make([]core.Pipe, len(tables))
	for i, t := range tables {
		s, err := t.Store()
		if err != nil {
			return rungStat{}, err
		}
		defer s.Close()
		if pipes[i], err = s.Pipe(core.PipeOpts{Window: ladderWindow}); err != nil {
			return rungStat{}, err
		}
	}
	return l.t.rung(name, len(calls), func(lo, hi int) error {
		for _, sc := range calls[lo:hi] {
			p := pipes[sc.shard]
			var err error
			switch sc.kind {
			case core.OpGet:
				err = p.Get(sc.key)
			case core.OpPut:
				err = p.Put(sc.key, sc.val)
			case core.OpInsert:
				err = p.Insert(sc.key, sc.val)
			case core.OpDelete:
				err = p.Delete(sc.key)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		for _, p := range pipes {
			if err := p.Close(); err != nil {
				return err
			}
		}
		return nil
	})
}
