package main

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	core "repro/internal/core"
)

// backend is what a worker drives: any core.Store, or the RESP adapter.
type backend interface {
	Pipe(core.PipeOpts) (core.Pipe, error)
	Close() error
}

// Phases the conductor publishes to the workers. Values from 0 up are
// measured slice indexes.
const (
	phaseWarm  int32 = -1
	phaseCrash int32 = 1 << 20 // keep issuing; the server is about to be killed
	phaseStop  int32 = 1 << 21
)

// pubEvery is how many ops a worker issues between publishing its
// progress and reading the phase: often enough that a slice boundary is
// sharp (≤256 ops of a 1 s slice), rarely enough to cost nothing.
const pubEvery = 256

// worker is one closed-loop generator goroutine: one backend, one pipe,
// one pre-materialised stream, one checker.
type worker struct {
	id  int
	be  backend
	st  stream
	chk *checker
	lat latSampler

	okOps atomic.Uint64 // verified completions, published every pubEvery ops
	err   error         // what ended run early, if anything
}

// latSampler times one op in stride from enqueue to completion; the zero
// value samples nothing. Backends
// that complete in enqueue order are matched by position; a cluster
// completes in order per shard only, so there samples are matched by key
// (uniform keys over 2^20 make a duplicate among the ≤48 in flight
// vanishingly rare).
type latSampler struct {
	stride  uint64
	ordered bool
	slice   int32
	bySlice [][]int64 // latencies in ns

	issued, completed uint64
	pend              []pendSample // oldest first
}

type pendSample struct {
	key   uint64
	t0    time.Time
	slice int32
}

func (l *latSampler) enqueue(key uint64) {
	if l.stride != 0 && l.issued%l.stride == 0 {
		l.pend = append(l.pend, pendSample{key, time.Now(), l.slice})
	}
	l.issued++
}

func (l *latSampler) complete(key uint64) {
	n := l.completed
	l.completed++
	if len(l.pend) == 0 {
		return
	}
	i := 0
	if l.ordered {
		if n%l.stride != 0 {
			return
		}
	} else if i = slices.IndexFunc(l.pend, func(p pendSample) bool { return p.key == key }); i < 0 {
		return
	}
	p := l.pend[i]
	l.pend = slices.Delete(l.pend, i, i+1)
	if p.slice >= 0 && int(p.slice) < len(l.bySlice) {
		l.bySlice[p.slice] = append(l.bySlice[p.slice], time.Since(p.t0).Nanoseconds())
	}
}

// open opens the worker's pipe with window w; completions are checked and,
// when sampled, timed.
func (w *worker) open(window int) (core.Pipe, error) {
	return w.be.Pipe(core.PipeOpts{Window: window, OnComplete: func(cp core.Completion) {
		w.lat.complete(cp.Key)
		w.chk.complete(cp)
	}})
}

// load inserts this worker's share of the resident keys — indexes ≡ id
// (mod workers) — and its stream's pre-live fresh keys, verifying every
// completion.
func (w *worker) load(ks keyspace, workers, window int) error {
	p, err := w.open(window)
	if err != nil {
		return err
	}
	insert := func(k uint64) error {
		w.chk.issuedOps++
		return p.Insert(k, valueOf(k, 0))
	}
	for i := uint64(w.id); i < ks.n; i += uint64(workers) {
		if err := insert(ks.key(i)); err != nil {
			return err
		}
	}
	for _, k := range w.st.ring {
		if err := insert(k); err != nil {
			return err
		}
	}
	return p.Close()
}

// run issues the stream, cyclically, until the conductor says stop. During
// phaseCrash a transport error ends the run cleanly: that is the kill.
func (w *worker) run(phase *atomic.Int32, window int) {
	p, err := w.open(window)
	if err != nil {
		w.err = err
		return
	}
	ops := w.st.ops
	pos := 0
	for n := uint64(0); ; n++ {
		if n%pubEvery == 0 {
			w.okOps.Store(w.chk.completed - w.chk.failed)
			ph := phase.Load()
			if ph == phaseStop {
				break
			}
			w.chk.crashing = ph == phaseCrash
			w.lat.slice = ph
		}
		o := ops[pos]
		if pos++; pos == len(ops) {
			pos = 0
		}
		w.lat.enqueue(o.key)
		w.chk.issuedOps++
		switch o.kind {
		case core.OpGet:
			err = p.Get(o.key)
		case core.OpPut:
			err = p.Put(o.key, w.chk.putValue(o.key, n))
		case core.OpInsert:
			err = p.Insert(o.key, valueOf(o.key, 0))
		case core.OpDelete:
			err = p.Delete(o.key)
		}
		if err != nil {
			if w.chk.crashing {
				// The pipe refused the op outright: it was never sent and
				// gets no completion.
				w.chk.issuedOps--
				return
			}
			w.err = fmt.Errorf("worker %d: %w", w.id, err)
			return
		}
	}
	if err := p.Close(); err != nil {
		w.err = fmt.Errorf("worker %d: flush: %w", w.id, err)
	}
	w.okOps.Store(w.chk.completed - w.chk.failed)
}

// sliceStat is one measured slice.
type sliceStat struct {
	seconds float64
	ops     uint64
	cpu     float64 // CPU seconds, generator plus servers
	rss     uint64  // resident bytes of the servers at the slice's end
	steal   float64 // CPU seconds the host took from this machine
	lat     []int64 // sorted latency samples, ns
}

// snapshot is the conductor's reading at a slice boundary.
type snapshot struct {
	t   time.Time
	ops uint64
	cpu float64
	rss uint64
	// steal is hostSteal's reading.
	steal float64
}

func takeSnapshot(ws []*worker, servers []*child) (snapshot, error) {
	s := snapshot{t: time.Now(), cpu: selfCPU(), steal: hostSteal()}
	for _, w := range ws {
		s.ops += w.okOps.Load()
	}
	for _, c := range servers {
		if err := c.alive(); err != nil {
			return s, err
		}
		cpu, err := procCPU(c.pid())
		if err != nil {
			return s, err
		}
		s.cpu += cpu
		rss, err := procRSS(c.pid())
		if err != nil {
			return s, err
		}
		s.rss += rss
	}
	return s, nil
}

// conduct runs the workers through warm-up and nSlices measured slices and
// returns the per-slice readings. atEnd runs at the end of the last slice
// with the workers still issuing (phaseCrash if it returns true, so a
// server can be killed under load); conduct then stops and joins them.
func conduct(ws []*worker, servers []*child, window int, warm, slice time.Duration, nSlices int, atEnd func() (crash bool, err error)) ([]sliceStat, error) {
	var phase atomic.Int32
	phase.Store(phaseWarm)
	var wg sync.WaitGroup
	for _, w := range ws {
		w.lat.bySlice = make([][]int64, nSlices)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(&phase, window)
		}()
	}
	stop := func() {
		phase.Store(phaseStop)
		wg.Wait()
	}
	time.Sleep(warm)
	stats := make([]sliceStat, nSlices)
	prev, err := takeSnapshot(ws, servers)
	for i := 0; i < nSlices && err == nil; i++ {
		phase.Store(int32(i))
		time.Sleep(slice)
		var cur snapshot
		cur, err = takeSnapshot(ws, servers)
		stats[i] = sliceStat{seconds: cur.t.Sub(prev.t).Seconds(), ops: cur.ops - prev.ops, cpu: cur.cpu - prev.cpu, rss: cur.rss, steal: cur.steal - prev.steal}
		prev = cur
	}
	if err != nil {
		stop()
		return nil, err
	}
	crash, err := atEnd()
	if crash && err == nil {
		phase.Store(phaseCrash)
		// Let every worker see the phase and refill its window.
		time.Sleep(50 * time.Millisecond)
		for _, c := range servers {
			c.kill()
		}
		wg.Wait()
	} else {
		stop()
	}
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		if w.err != nil {
			return nil, w.err
		}
		for i := range stats {
			stats[i].lat = append(stats[i].lat, w.lat.bySlice[i]...)
		}
	}
	for i := range stats {
		slices.Sort(stats[i].lat)
	}
	return stats, nil
}

// percentile returns the p-th percentile (0..1) of sorted samples.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[min(int(p*float64(len(sorted))), len(sorted)-1)])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}
