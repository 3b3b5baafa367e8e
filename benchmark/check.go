package main

import (
	core "repro/internal/core"
)

// checker verifies one worker's completions. Every outcome is decidable
// from the completion alone: Gets and Puts target resident keys and must
// hit a value carrying the key's tag; Inserts add keys that are absent and
// Deletes remove keys that are present. With seq set it also tracks, per
// resident key, how many of this worker's Puts were issued and acked, and
// requires each Put to return the value the previous one wrote — the
// per-key order the durable and replicated backends promise.
//
// An op fails on an error completion, a miss, a wrong value, or — found by
// finish — a completion that never arrived.
type checker struct {
	ks        keyspace
	issuedOps uint64
	completed uint64
	failed    uint64

	// crashing is set while the server is being killed under load: error
	// completions are then the kill, not failures, and leave their Puts
	// issued but unacked.
	crashing bool
	inDoubt  uint64

	seq    bool
	issued []uint16 // per resident index: Puts sent
	acked  []uint16 // per resident index: Puts completed OK
}

func newChecker(ks keyspace, seq bool) *checker {
	c := &checker{ks: ks, seq: seq}
	if seq {
		c.issued = make([]uint16, ks.n)
		c.acked = make([]uint16, ks.n)
	}
	return c
}

// putValue returns the value the next Put of k writes and records it as
// issued.
func (c *checker) putValue(k uint64, n uint64) uint64 {
	if !c.seq {
		return valueOf(k, uint16(n))
	}
	i, _ := c.ks.index(k)
	c.issued[i]++
	return valueOf(k, c.issued[i])
}

// complete checks one completion.
func (c *checker) complete(cp core.Completion) {
	if c.crashing && cp.Err != nil {
		c.inDoubt++
		return
	}
	c.completed++
	done := cp.Err == nil && cp.OK
	ok := done
	if cp.Kind != core.OpInsert { // an Insert's completion carries no value
		ok = ok && tagOK(cp.Key, cp.Value)
	}
	if cp.Kind == core.OpPut && c.seq {
		if i, resident := c.ks.index(cp.Key); resident {
			// The previous value is the one this worker's last acked Put
			// wrote (0 after load).
			ok = ok && uint16(cp.Value) == c.acked[i]
			if done {
				c.acked[i]++
			}
		}
	}
	if !ok {
		c.failed++
	}
}

// finish counts completions that never arrived as failed and returns the
// totals.
func (c *checker) finish() (attempted, failed uint64) {
	attempted = c.issuedOps - c.inDoubt
	if attempted > c.completed {
		c.failed += attempted - c.completed
		c.completed = attempted
	}
	return attempted, c.failed
}
