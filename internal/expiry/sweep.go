package expiry

import "time"

// Sweeper is a running background sweep goroutine; Stop joins it.
type Sweeper struct {
	stop chan struct{}
	done chan struct{}
}

// StartSweeper launches the sampling expiry sweep over kv's index on kv's
// handle, which must be dedicated to it. Like Redis's active expiry: every
// interval (default 100ms) one SweepOnce round examines up to sample
// entries per shard (default 20; Go's randomized map iteration order makes
// each round a fresh sample) and deletes the expired ones through
// OnExpired. A round ends by advancing the handle's epoch, so blocks
// deleted by other handles can reclaim past it.
func (kv KV) StartSweeper(interval time.Duration, sample int) *Sweeper {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if sample <= 0 {
		sample = 20
	}
	sw := &Sweeper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sw.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-sw.stop:
				return
			case <-t.C:
				kv.idx.SweepOnce(sample, kv.OnExpired)
				kv.h.AdvanceEpoch()
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

// maxResample bounds how many times one round revisits a single shard.
const maxResample = 4

// SweepOnce runs one sweep round: sample up to n entries per shard, fire
// onExpired for the expired ones, re-sample while over 25% of a shard's
// sample was expired. Returns how many expired entries were reported.
// onExpired runs outside all index locks; finding the entry already gone
// (a racing SET or lazy expire won) is normal. Exported for deterministic
// tests; the background sweeper calls it on a ticker with KV.OnExpired.
func (ix *Index) SweepOnce(n int, onExpired func(ns uint16, key []byte, at int64)) int {
	if ix.count.Load() == 0 {
		return 0
	}
	type ent struct {
		mk string
		at int64
	}
	now := ix.now()
	total := 0
	var hits []ent
	for i := range ix.shards {
		s := &ix.shards[i]
		for round := 0; round < maxResample; round++ {
			hits = hits[:0]
			scanned := 0
			s.mu.Lock()
			for mk, at := range s.m {
				if scanned >= n {
					break
				}
				scanned++
				if at <= now {
					hits = append(hits, ent{mk, at})
				}
			}
			s.mu.Unlock()
			for _, e := range hits {
				ns, key := splitKey(e.mk)
				if onExpired != nil {
					onExpired(ns, key, e.at)
				}
			}
			total += len(hits)
			// Keep digging only while the sample ran hot (>25% expired).
			if scanned == 0 || len(hits)*4 <= scanned {
				break
			}
		}
	}
	return total
}
