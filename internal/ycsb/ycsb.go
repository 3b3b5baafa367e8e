// Package ycsb implements the single-key YCSB benchmark mixes of the
// paper's §5.3.4: workloads A (50/50 read-update), B (95/5), C (read only)
// and F (read-modify-write), with Zipf-distributed keys as in the YCSB
// specification.
//
// The driver is written against the backend-independent Store surface, so
// the identical mix loop measures an in-process table (New), a single
// dlht-server, or a sharded cluster (NewOver with the matching opener) —
// the workload code does not change across backends.
package ycsb

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Driver owns the backend and the prepopulated record space.
type Driver struct {
	// open returns a fresh per-worker Store (one per goroutine, like
	// handles and connections).
	open    func() (core.Store, error)
	records uint64
	zipf    *workload.Zipf

	t *core.Table // backing table when built by New; nil for NewOver
}

// New builds a local in-process driver with the given record count
// prepopulated (values are 8-byte encodings, the paper's default inlined
// configuration).
func New(records uint64, maxThreads int) (*Driver, error) {
	if maxThreads < 8192 {
		// Worker stores release their handles after each Run, but budget
		// generously anyway (a handle id costs this table nothing until it
		// is used): thread sweeps may hold a wide high-water mark of
		// concurrent workers.
		maxThreads = 8192
	}
	t, err := core.New(core.Config{
		Bins:       records*2/3 + 64,
		Resizable:  true,
		MaxThreads: maxThreads + 1,
	})
	if err != nil {
		return nil, err
	}
	d, err := NewOver(t.Store, records)
	if err != nil {
		return nil, err
	}
	d.t = t
	return d, nil
}

// NewOver builds a driver over any Store backend. open returns a fresh
// Store per worker goroutine — (*Table).Store for in-process tables, a
// dlht.Open("tcp://...") for a server, dlht.Open("cluster:...") for a
// sharded cluster.
// The record space [0, records) is prepopulated through one pipelined
// store before NewOver returns.
func NewOver(open func() (core.Store, error), records uint64) (*Driver, error) {
	s, err := open()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	var insErr error
	p, err := s.Pipe(core.PipeOpts{OnComplete: func(c core.Completion) {
		if c.Err != nil && insErr == nil {
			insErr = c.Err
		}
	}})
	if err != nil {
		return nil, err
	}
	for k := uint64(0); k < records; k++ {
		if err := p.Insert(k, xy(k)); err != nil {
			return nil, err
		}
	}
	if err := p.Close(); err != nil {
		return nil, err
	}
	if insErr != nil {
		return nil, insErr
	}
	return &Driver{
		open:    open,
		records: records,
		zipf:    workload.NewZipf(42, records, 0.99),
	}, nil
}

// Table returns the backing table when the driver was built by New (nil
// for NewOver drivers); benchmarks use it for stats probes.
func (d *Driver) Table() *core.Table { return d.t }

// xy is a cheap value scrambler so values differ from keys.
func xy(k uint64) uint64 { return k*0x9e3779b97f4a7c15 + 1 }

// Result is the outcome of one mix run.
type Result struct {
	Mix     string
	Threads int
	Ops     uint64
	Errs    uint64 // transport/table errors observed by workers
	Elapsed time.Duration
}

// MReqs returns million operations per second.
func (r Result) MReqs() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e6
}

// Run executes the mix for dur across threads workers, each driving its
// own Store.
func (d *Driver) Run(mix workload.Mix, threads int, dur time.Duration) Result {
	var stop atomic.Bool
	var total, errs atomic.Uint64
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s, err := d.open()
			if err != nil {
				errs.Add(1)
				return
			}
			defer s.Close()
			rng := workload.NewRNG(uint64(tid)*2654435761 + 7)
			keys := d.zipf.Clone(uint64(tid) + 1)
			fresh := workload.NewFreshKeys(tid, d.records)
			var ops, eops uint64
			for !stop.Load() {
				for i := 0; i < 32; i++ {
					k := keys.Key()
					var err error
					switch mix.Pick(rng) {
					case workload.Read:
						_, _, err = s.Get(k)
					case workload.Update:
						_, _, err = s.Put(k, rng.Next())
					case workload.Insert:
						nk := fresh.Key()
						_, _, err = s.Insert(nk, nk)
					case workload.ReadModifyWrite:
						var v uint64
						var ok bool
						if v, ok, err = s.Get(k); err == nil && ok {
							_, _, err = s.Put(k, v+1)
						}
					}
					if err != nil {
						eops++
					}
				}
				ops += 32
			}
			total.Add(ops)
			errs.Add(eops)
		}(tid)
	}
	begin := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return Result{
		Mix:     mix.Name(),
		Threads: threads,
		Ops:     total.Load(),
		Errs:    errs.Load(),
		Elapsed: time.Since(begin),
	}
}
