package epoch

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRetireNotFreedImmediately(t *testing.T) {
	freed := false
	c := NewCollector(1, func(uint64) { freed = true })
	h := c.Handle(0)
	h.Retire(1)
	if freed {
		t.Fatal("freed before any advance")
	}
	h.Advance()
	if freed {
		t.Fatal("freed after a single advance")
	}
}

func TestRetireFreedAfterTwoAdvances(t *testing.T) {
	freed := false
	c := NewCollector(1, func(uint64) { freed = true })
	h := c.Handle(0)
	h.Retire(1)
	for i := 0; i < 4 && !freed; i++ {
		h.Advance()
	}
	if !freed {
		t.Fatal("item never freed after repeated advances")
	}
}

func TestAdvanceBlockedByLaggingActiveThread(t *testing.T) {
	c := NewCollector(2, func(uint64) {})
	h0, h1 := c.Handle(0), c.Handle(1)
	h0.Enter()
	h1.Enter()
	e := c.Epoch()
	// h1 advances; both threads have observed e, so the epoch moves.
	h1.Advance()
	if c.Epoch() != e+1 {
		t.Fatalf("epoch = %d, want %d", c.Epoch(), e+1)
	}
	// h0 has not re-observed the new epoch; further advances must stall.
	h1.Enter() // h1 observes e+1
	h1.Advance()
	if c.Epoch() != e+1 {
		t.Fatalf("epoch advanced past a lagging active thread: %d", c.Epoch())
	}
	// Once h0 leaves, it no longer blocks advancement.
	h0.Leave()
	h1.Advance()
	if c.Epoch() != e+2 {
		t.Fatalf("epoch = %d, want %d after lagging thread left", c.Epoch(), e+2)
	}
}

func TestDrainFreesEverything(t *testing.T) {
	var n, sum atomic.Int64
	c := NewCollector(3, func(it uint64) { n.Add(1); sum.Add(int64(it)) })
	for i := 0; i < 3; i++ {
		h := c.Handle(i)
		for j := 0; j < 5; j++ {
			h.Retire(uint64(i*5 + j))
		}
	}
	if freed := c.Drain(); freed != 15 {
		t.Fatalf("Drain freed %d, want 15", freed)
	}
	if n.Load() != 15 || sum.Load() != 14*15/2 {
		t.Fatalf("free ran %d times over items summing to %d, want 15 and %d", n.Load(), sum.Load(), 14*15/2)
	}
}

func TestHandleOutOfRangePanics(t *testing.T) {
	c := NewCollector(1, func(uint64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Handle(1)
}

// The safety property: a reader inside Enter/Leave that captured an item
// before it was retired must never observe the free callback running while
// it is still inside the critical region.
func TestEpochSafetyUnderConcurrency(t *testing.T) {
	const readers, rounds = 4, 3000
	// Items are indexes into objs; freeing one marks it dead.
	objs := make([]struct{ alive atomic.Bool }, rounds+1)
	c := NewCollector(readers+1, func(i uint64) { objs[i].alive.Store(false) })
	writer := c.Handle(readers)

	var current atomic.Uint64
	objs[0].alive.Store(true)

	var stop atomic.Bool
	var violations atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := c.Handle(id)
			for !stop.Load() {
				h.Enter()
				p := &objs[current.Load()]
				// Simulate some work inside the critical region.
				for k := 0; k < 10; k++ {
					if !p.alive.Load() {
						violations.Add(1)
						break
					}
				}
				h.Leave()
				h.Advance()
			}
		}(i)
	}
	for round := uint64(1); round <= rounds; round++ {
		objs[round].alive.Store(true)
		current.Store(round)
		writer.Retire(round - 1)
		writer.Advance()
	}
	stop.Store(true)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d epoch safety violations", v)
	}
}

// Advance and Drain scan only the records a Handle was issued for. With
// ids 0–2 issued out of 4096, the never-issued records must not hold the
// epoch back, and a handle issued later at a high id must be seen.
func TestAdvanceScansIssuedHandles(t *testing.T) {
	freed := 0
	c := NewCollector(4096, func(uint64) { freed++ })
	h0, h1, h2 := c.Handle(0), c.Handle(1), c.Handle(2)
	h1.Enter()
	h2.Enter()
	h0.Retire(7)
	h0.Advance()
	h1.Enter()
	h2.Enter()
	h0.Advance()
	if freed != 1 {
		t.Fatalf("freed %d items after two advances, want 1", freed)
	}
	h1.Leave()
	h2.Leave()

	late := c.Handle(4000)
	late.Enter() // observes the current epoch, then lags behind it
	e := c.Epoch()
	h0.Retire(8)
	h0.Advance() // every active participant has seen e: the epoch moves
	if c.Epoch() != e+1 {
		t.Fatalf("epoch = %d, want %d", c.Epoch(), e+1)
	}
	for i := 0; i < 4; i++ {
		h0.Advance()
	}
	if c.Epoch() != e+1 {
		t.Fatalf("epoch advanced past the lagging handle at id 4000: %d", c.Epoch())
	}
	if freed != 1 {
		t.Fatalf("freed %d items while the handle at id 4000 lags, want 1", freed)
	}
	late.Leave()
	h0.Advance()
	h0.Advance()
	if freed != 2 {
		t.Fatalf("freed %d items once the lagging handle left, want 2", freed)
	}
	late.Retire(9)
	if n := c.Drain(); n != 1 {
		t.Fatalf("Drain freed %d, want the late handle's 1", n)
	}
}

// BenchmarkAdvance prices one Advance on a collector of n records with
// four handles issued, a small server's connections: 4 is a collector
// sized to them, 4096 dlht-server's default MaxThreads.
func BenchmarkAdvance(b *testing.B) {
	for _, n := range []int{4, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			c := NewCollector(n, func(uint64) {})
			h := c.Handle(0)
			for i := 1; i < 4; i++ {
				c.Handle(i)
			}
			for i := 0; i < b.N; i++ {
				h.Enter()
				h.Leave()
				h.Advance()
			}
		})
	}
}
