// Fixture for the pipebarrier pass: methods on a KVPipeline-owning
// type must drain the pipeline before direct KV table operations, or
// in-flight completions reorder across them.
package pipebarrier

type KVPipeline struct{}

func (pl *KVPipeline) GetHashed(key []byte, hash uint64) {}
func (pl *KVPipeline) Flush()                            {}
func (pl *KVPipeline) InFlight() int                     { return 0 }

type handle struct{}

func (h *handle) GetKV(key []byte) ([]byte, bool)             { return nil, false }
func (h *handle) DeleteKVHashed(key []byte, hash uint64) bool { return true }

// KV stands in for the TTL'd-KV state machine bound to the owner's
// handle: every method of it operates on the table directly.
type KV struct{}

func (kv KV) Set(key, val []byte, hash uint64) bool { return true }
func (kv KV) TTL(key []byte, hash uint64) int64     { return -1 }

type conn struct {
	pl *KVPipeline
	h  *handle
	kv KV
}

func (cn *conn) Barrier() { cn.pl.Flush() }

// cmdGood drains in-flight lookups before the direct read.
func (cn *conn) cmdGood(key []byte) {
	cn.Barrier()
	cn.h.GetKV(key)
}

// enqueueGood: calls on the pipeline itself are the streaming path.
func (cn *conn) enqueueGood(key []byte, hash uint64) {
	cn.pl.GetHashed(key, hash)
}

// cmdBad reads the table while lookups may still be in flight.
func (cn *conn) cmdBad(key []byte) {
	cn.h.GetKV(key) // want `no barrier/Flush before it`
	cn.Barrier()
}

// deleteBad mutates behind in-flight lookups.
func (cn *conn) deleteBad(key []byte, hash uint64) {
	cn.h.DeleteKVHashed(key, hash) // want `no barrier/Flush before it`
}

// cmdSetGood drains, then makes its one call into the state machine.
func (cn *conn) cmdSetGood(key, val []byte, hash uint64) {
	cn.Barrier()
	cn.kv.Set(key, val, hash)
}

// cmdTTLBad: a state-machine call is a direct operation whatever it is
// called, reads included.
func (cn *conn) cmdTTLBad(key []byte, hash uint64) {
	cn.kv.TTL(key, hash) // want `no barrier/Flush before it`
}

// setLocked: a helper's name exempts nothing.
func (cn *conn) setLocked(key []byte) {
	cn.h.GetKV(key) // want `no barrier/Flush before it`
}

// free functions without the owning receiver are out of scope.
func free(h *handle, key []byte) {
	h.GetKV(key)
}

// engine stands in for the per-connection engine: it owns the pipeline,
// and Barrier is its drain.
type engine struct {
	kp *KVPipeline
	KV KV
}

func (e *engine) Barrier() { e.kp.Flush() }

// codec holds the engine, not the pipeline: it owns the pipeline through
// it, and its methods are checked like the engine's own.
type codec struct {
	*engine
}

// cmdSetGood drains through the engine, then calls the state machine.
func (cd *codec) cmdSetGood(key, val []byte, hash uint64) {
	cd.Barrier()
	cd.KV.Set(key, val, hash)
}

// cmdSetBad mutates before the engine's barrier.
func (cd *codec) cmdSetBad(key, val []byte, hash uint64) {
	cd.KV.Set(key, val, hash) // want `no barrier/Flush before it`
	cd.Barrier()
}
