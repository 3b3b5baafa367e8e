// Package epoch implements the epoch-based garbage collection DLHT offers
// for Allocator-mode Deletes (§3.2.3): slots are reclaimed instantly, but
// the out-of-line value a deleted slot pointed to may still be read by a
// concurrent Get, so it is retired into the current epoch and only freed
// once every participating thread has moved past that epoch. As in the
// paper, "the client periodically performs a call from all threads to
// advance the epoch".
package epoch

import "sync/atomic"

// Collector coordinates a fixed set of participant threads. Thread i
// interacts through its Handle. The zero epoch is never collected, and a
// retired item is freed two epoch advances after retirement — the classic
// three-bucket scheme. An item is a word the owner can free from (DLHT
// retires block references): retiring one allocates nothing, so a
// delete-heavy workload leaves no garbage behind for the Go collector.
type Collector struct {
	global atomic.Uint64
	// issued is one past the highest id Handle has handed out. Advance and
	// Drain scan only records[:issued]: a record no Handle was ever issued
	// for has never entered a region (active stays 0) and holds no retired
	// items, so skipping it cannot free early or leak. Hosts hand ids out
	// densely and recycle them, so the scan stays at peak concurrency, not
	// at maxThreads.
	issued  atomic.Int64
	free    func(item uint64)
	records []record
}

type record struct {
	// epoch is the last global epoch this participant observed; the low bit
	// of active indicates whether the participant is inside a critical
	// region.
	epoch  atomic.Uint64
	active atomic.Uint32
	// dlht:ok:fieldalignment — deliberate padding: epoch+active share one
	// participant-private cache line, away from the retired lists below.
	_ [44]byte

	// retired items per epoch bucket (index = epoch % 3). Only the owning
	// thread touches its buckets, except during Drain.
	buckets [3][]uint64
}

// NewCollector creates a collector for up to maxThreads participants that
// frees retired items by calling free.
func NewCollector(maxThreads int, free func(item uint64)) *Collector {
	if maxThreads <= 0 {
		maxThreads = 1
	}
	c := &Collector{free: free, records: make([]record, maxThreads)}
	c.global.Store(1)
	for i := range c.records {
		c.records[i].epoch.Store(1)
	}
	return c
}

// Handle is the per-thread interface to the collector.
type Handle struct {
	c  *Collector
	id int
}

// Handle returns the participant handle for thread id (0 ≤ id < maxThreads).
// It raises the issued mark past id before it returns, so every Advance
// that could free what this handle reads scans its record: the handle's
// Enter loads the global epoch after the raise, and an Advance whose own
// epoch load comes later loads the mark later still (the atomics are
// sequentially consistent).
func (c *Collector) Handle(id int) *Handle {
	if id < 0 || id >= len(c.records) {
		panic("epoch: handle id out of range")
	}
	for {
		n := c.issued.Load()
		if int64(id) < n || c.issued.CompareAndSwap(n, int64(id)+1) {
			break
		}
	}
	return &Handle{c: c, id: id}
}

// Epoch returns the current global epoch (for tests and stats).
func (c *Collector) Epoch() uint64 { return c.global.Load() }

// Enter marks the participant as inside an epoch-protected region. Reads of
// retire-protected memory must happen between Enter and Leave.
func (h *Handle) Enter() {
	r := &h.c.records[h.id]
	r.active.Store(1)
	r.epoch.Store(h.c.global.Load())
}

// Leave marks the participant as outside any protected region.
func (h *Handle) Leave() {
	h.c.records[h.id].active.Store(0)
}

// Retire schedules item to be freed once two epoch advances have occurred,
// i.e. when no participant can still hold a reference obtained before the
// retirement epoch.
func (h *Handle) Retire(item uint64) {
	r := &h.c.records[h.id]
	e := h.c.global.Load()
	r.buckets[e%3] = append(r.buckets[e%3], item)
}

// Advance is the periodic client call from the paper. It attempts to move
// the global epoch forward; if successful, it frees this participant's
// bucket from two epochs ago. It returns the number of items freed.
//
// The global epoch can only advance when every active participant has
// observed the current epoch, so by the time bucket (e-2)%3 is freed no
// reader can reference its items.
func (h *Handle) Advance() int {
	c := h.c
	e := c.global.Load()
	canAdvance := true
	for i := range c.records[:c.issued.Load()] {
		r := &c.records[i]
		if r.active.Load() == 1 && r.epoch.Load() != e {
			canAdvance = false
			break
		}
	}
	if canAdvance {
		c.global.CompareAndSwap(e, e+1)
	}
	// Free this thread's stale bucket regardless of who advanced: anything
	// retired at epoch ≤ current-2 is unreachable.
	cur := c.global.Load()
	if cur < 3 {
		return 0
	}
	freedBucket := (cur - 2) % 3
	r := &c.records[h.id]
	// The bucket for (cur-2) is only safe if it cannot also be the bucket
	// of the current epoch; with 3 buckets that always holds.
	if freedBucket == cur%3 || freedBucket == (cur-1)%3 {
		return 0
	}
	items := r.buckets[freedBucket]
	if len(items) == 0 {
		return 0
	}
	r.buckets[freedBucket] = items[:0]
	for _, it := range items {
		c.free(it)
	}
	return len(items)
}

// Drain frees every retired item unconditionally. Only safe when the caller
// guarantees quiescence (e.g. table teardown). Returns items freed.
func (c *Collector) Drain() int {
	n := 0
	for i := range c.records[:c.issued.Load()] {
		r := &c.records[i]
		for b := range r.buckets {
			for _, it := range r.buckets[b] {
				c.free(it)
				n++
			}
			r.buckets[b] = nil
		}
	}
	return n
}
