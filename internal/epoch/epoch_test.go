package epoch

import (
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
