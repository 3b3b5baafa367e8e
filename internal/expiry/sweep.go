package expiry

import (
	"time"

	core "repro/internal/core"
)

// Sweeper is a running background sweep goroutine; Stop joins it.
type Sweeper struct {
	stop chan struct{}
	done chan struct{}
}

// StartSweeper launches the background expiry crawl on kv's handle, which
// must be dedicated to it. Like memcached's LRU crawler: every interval
// (default 100ms) one Crawler.Round spends the default sample on the next
// stretch of the table and deletes the expired pairs it finds through
// Expired. A round ends by advancing the handle's epoch and dropping its
// pin, so blocks deleted by other handles can reclaim past it while it
// sleeps.
func (kv KV) StartSweeper(interval time.Duration) *Sweeper {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	sw := &Sweeper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sw.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		c := kv.Crawler()
		for {
			select {
			case <-sw.stop:
				return
			case <-t.C:
				c.Round(0)
				kv.h.AdvanceEpoch()
				kv.h.Unpin()
			}
		}
	}()
	return sw
}

// Stop halts the sweeper and waits for the in-flight round to finish.
func (sw *Sweeper) Stop() {
	close(sw.stop)
	<-sw.done
}

// defaultSample is a round's default budget; maxResample bounds how many
// steps one round takes while it keeps finding the table hot.
const (
	defaultSample = 1024
	maxResample   = 4
)

// Crawler is the sweep's position in its table: a bin cursor that wraps,
// and the scratch one step fills. One goroutine's, like the KV it came
// from.
type Crawler struct {
	kv   KV
	cur  core.Cursor
	dead []deadKey // the step's expired pairs: key bytes live in keys
	keys []byte
}

type deadKey struct {
	ns       uint16
	off, end int
}

// Crawler returns a crawler at the start of kv's table.
func (kv KV) Crawler() *Crawler { return &Crawler{kv: kv} }

// step crawls on from the cursor until the bins visited plus the pairs
// examined reach budget, then sends the pairs it found past their deadline
// through Expired — which re-checks each and deletes it only if it is
// still the dead pair: a SET or PERSIST may have replaced it since the
// crawler read it. It
// reports the pairs examined, the pairs deleted, and whether the crawl
// reached the end of the table (the next step starts over).
func (c *Crawler) step(budget int) (seen, deleted int, wrapped bool) {
	now := c.kv.idx.Now()
	c.dead, c.keys = c.dead[:0], c.keys[:0]
	c.cur, wrapped = c.kv.h.RangeKVStep(c.cur, budget, false, func(e *core.KVEntry) {
		seen++
		if Dead(e.Meta, now) {
			off := len(c.keys)
			c.keys = append(c.keys, e.Key...)
			c.dead = append(c.dead, deadKey{e.NS, off, len(c.keys)})
		}
	})
	tbl := c.kv.h.Table()
	for _, d := range c.dead {
		key := c.keys[d.off:d.end]
		if c.kv.Expired(d.ns, key, tbl.HashOfKV(d.ns, key)) {
			deleted++
		}
	}
	return seen, deleted, wrapped
}

// Round runs one sweep round: a step of sample (bins visited + pairs
// examined; <= 0 selects the default), repeated up to maxResample times
// while over 25% of the pairs a step examined were expired. It returns
// how many pairs it deleted. Exported for deterministic tests; the
// background sweeper calls it on a ticker.
func (c *Crawler) Round(sample int) int {
	if sample <= 0 {
		sample = defaultSample
	}
	total := 0
	for i := 0; i < maxResample; i++ {
		seen, deleted, _ := c.step(sample)
		total += deleted
		// Keep digging only while the stretch ran hot (>25% expired).
		if len(c.dead)*4 <= seen {
			break
		}
	}
	return total
}
