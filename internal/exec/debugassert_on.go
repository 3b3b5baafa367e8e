//go:build dlhtdebug

package exec

// The dlhtdebug assertion layer for the executor: reorder-ring
// invariants that would surface as silent completion corruption (a result
// delivered for the wrong request) if they ever broke. Compiled out of
// release builds via the debugAsserts constant; CI runs the suite
// under `go test -race -tags dlhtdebug ./...`.
const debugAsserts = true

// assertSeqWindow panics unless seq lies in the session's open reorder
// window [next, submitted) and its slot has not been completed before.
// Called with s.mu held.
func (s *Session) assertSeqWindow(seq uint64, filled bool) {
	if seq < s.next || seq >= s.submitted {
		panic("dlhtdebug: completion seq outside the session's reorder window")
	}
	if filled {
		panic("dlhtdebug: reorder slot completed twice")
	}
}

// assertTagAvailable panics when a shard pops a completion tag it never
// pushed — the FIFO that pairs pipeline completions back to their
// sessions has desynchronized from the pipeline.
func (r *tagRing) assertTagAvailable() {
	if r.head == r.tail {
		panic("dlhtdebug: completion tag ring underflow")
	}
}
