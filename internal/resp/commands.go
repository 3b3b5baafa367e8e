package resp

import (
	"errors"
	"strconv"

	core "repro/internal/core"
)

// Command dispatch. GET and MGET are the streamed path: their keys are
// retained in the arena and enqueued on the connection's KVPipeline, and
// their replies are written by OnComplete in enqueue order. Every other
// command is a barrier — it drains the pipeline first, so its inline
// reply cannot overtake a pipelined lookup's.

func upperTo(dst, src []byte) []byte {
	for _, c := range src {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

func (cn *conn) dispatch(cmd *Command) {
	args := cmd.Args
	if len(args[0]) > 32 {
		cn.barrier()
		cn.writeError("ERR unknown command")
		return
	}
	var nbuf [32]byte
	name := upperTo(nbuf[:0], args[0])
	switch string(name) {
	case "GET":
		cn.cmdGet(args)
	case "SET":
		cn.cmdSet(args)
	case "SETNX":
		cn.cmdSetNX(args)
	case "MGET":
		cn.cmdMGet(args)
	case "MSET":
		cn.cmdMSet(args)
	case "DEL", "UNLINK":
		cn.cmdDel(args)
	case "EXISTS":
		cn.cmdExists(args)
	case "INCR":
		cn.cmdIncr(args, "incr", 1, false)
	case "DECR":
		cn.cmdIncr(args, "decr", -1, false)
	case "INCRBY":
		cn.cmdIncr(args, "incrby", 1, true)
	case "DECRBY":
		cn.cmdIncr(args, "decrby", -1, true)
	case "TTL":
		cn.cmdTTL(args, "ttl", false)
	case "PTTL":
		cn.cmdTTL(args, "pttl", true)
	case "EXPIRE":
		cn.cmdExpire(args, "expire", 1000)
	case "PEXPIRE":
		cn.cmdExpire(args, "pexpire", 1)
	case "PERSIST":
		cn.cmdPersist(args)
	case "PING":
		cn.barrier()
		if len(args) > 1 {
			cn.writeBulk(args[1])
		} else {
			cn.writeSimple("PONG")
		}
	case "ECHO":
		cn.barrier()
		if len(args) != 2 {
			cn.wrongArgs("echo")
			return
		}
		cn.writeBulk(args[1])
	case "SELECT":
		cn.cmdSelect(args)
	case "QUIT":
		cn.barrier()
		cn.writeSimple("OK")
		cn.closed = true
	case "DBSIZE":
		cn.barrier()
		cn.writeInt(int64(cn.h.Len()))
	case "COMMAND":
		// Handshake stub: clients probe COMMAND / COMMAND DOCS at connect
		// and tolerate an empty table.
		cn.barrier()
		cn.writeArrayHeader(0)
	case "CONFIG":
		cn.cmdConfig(args)
	case "INFO":
		cn.cmdInfo(args)
	default:
		cn.barrier()
		cn.writeError("ERR unknown command '" + string(args[0]) + "'")
	}
}

func (cn *conn) wrongArgs(name string) {
	cn.writeError("ERR wrong number of arguments for '" + name + "' command")
}

func (cn *conn) writeKVErr(err error) {
	cn.writeError("ERR " + err.Error())
}

// lazyExpireLocked is the lazy-expire step, stripe lock held: a key past
// its deadline is deleted (unlogged — replay re-derives the deadline and
// the open-time purge converges) and reported expired.
func (cn *conn) lazyExpireLocked(ns uint16, key []byte, hash uint64) bool {
	if at, ok := cn.idx.Deadline(ns, key, hash); ok && at <= cn.idx.Now() {
		cn.h.DeleteKVHashed(ns, key, hash)
		cn.idx.Remove(ns, key, hash)
		return true
	}
	return false
}

// lazyExpire checks key's deadline from the fast path and, if passed,
// barriers the pipeline (a mutation may not run under in-flight views of
// this handle) and deletes under the stripe lock. Reports whether the key
// is expired-and-now-gone; a lost race against a concurrent writer
// reports false and the caller proceeds with a live read.
func (cn *conn) lazyExpire(ns uint16, key []byte, hash uint64) bool {
	at, ok := cn.idx.Deadline(ns, key, hash)
	if !ok || at > cn.idx.Now() {
		return false
	}
	cn.barrier()
	mu := cn.idx.Lock(hash)
	mu.Lock()
	expired := cn.lazyExpireLocked(ns, key, hash)
	mu.Unlock()
	return expired
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

func (cn *conn) cmdGet(args [][]byte) {
	if len(args) != 2 {
		cn.barrier()
		cn.wrongArgs("get")
		return
	}
	key := args[1]
	if err := cn.tbl.CheckKV(cn.ns, key, nil, false); err != nil {
		cn.barrier()
		cn.writeKVErr(err)
		return
	}
	hash := cn.tbl.HashOfKV(cn.ns, key)
	if cn.lazyExpire(cn.ns, key, hash) {
		cn.writeNull()
		return
	}
	cn.pl.GetHashed(cn.ns, cn.retain(key), hash)
}

func (cn *conn) cmdMGet(args [][]byte) {
	if len(args) < 2 {
		cn.barrier()
		cn.wrongArgs("mget")
		return
	}
	// The *N header must precede the first value, so the pipeline has to
	// be empty when it goes out; the per-key replies then stream from
	// OnComplete like plain GETs.
	cn.barrier()
	cn.writeArrayHeader(len(args) - 1)
	for _, key := range args[1:] {
		if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
			// An unstorable key cannot exist: nil, ordered via barrier.
			cn.barrier()
			cn.writeNull()
			continue
		}
		hash := cn.tbl.HashOfKV(cn.ns, key)
		if cn.lazyExpire(cn.ns, key, hash) {
			cn.writeNull()
			continue
		}
		cn.pl.GetHashed(cn.ns, cn.retain(key), hash)
	}
}

func (cn *conn) cmdExists(args [][]byte) {
	cn.barrier()
	if len(args) < 2 {
		cn.wrongArgs("exists")
		return
	}
	var n int64
	for _, key := range args[1:] {
		if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
			continue
		}
		hash := cn.tbl.HashOfKV(cn.ns, key)
		mu := cn.idx.Lock(hash)
		mu.Lock()
		if !cn.lazyExpireLocked(cn.ns, key, hash) {
			if _, ok := cn.h.GetKV(cn.ns, key); ok {
				n++
			}
		}
		mu.Unlock()
	}
	cn.writeInt(n)
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

// upsertLocked is the replace-or-insert core, stripe lock held, pipeline
// drained.
func (cn *conn) upsertLocked(ns uint16, key, val []byte, hash uint64) error {
	for {
		err := cn.h.InsertKVHashed(ns, key, val, hash)
		if err == nil {
			return nil
		}
		if !errors.Is(err, core.ErrExists) {
			return err
		}
		cn.h.DeleteKVHashed(ns, key, hash)
	}
}

func (cn *conn) cmdSet(args [][]byte) {
	cn.barrier()
	if len(args) < 3 {
		cn.wrongArgs("set")
		return
	}
	key, val := args[1], args[2]
	var atMs int64
	var nx, xx, keep bool
	for i := 3; i < len(args); i++ {
		var obuf [8]byte
		switch string(upperTo(obuf[:0], args[i])) {
		case "NX":
			nx = true
		case "XX":
			xx = true
		case "KEEPTTL":
			keep = true
		case "EX", "PX", "EXAT", "PXAT":
			if i+1 >= len(args) {
				cn.writeError("ERR syntax error")
				return
			}
			n, ok := parseInt(args[i+1])
			if !ok {
				cn.writeError("ERR value is not an integer or out of range")
				return
			}
			var obuf2 [8]byte
			switch string(upperTo(obuf2[:0], args[i])) {
			case "EX":
				if n <= 0 {
					cn.writeError("ERR invalid expire time in 'set' command")
					return
				}
				atMs = cn.idx.Now() + n*1000
			case "PX":
				if n <= 0 {
					cn.writeError("ERR invalid expire time in 'set' command")
					return
				}
				atMs = cn.idx.Now() + n
			case "EXAT":
				atMs = n * 1000
			case "PXAT":
				atMs = n
			}
			i++
		default:
			cn.writeError("ERR syntax error")
			return
		}
	}
	if nx && xx {
		cn.writeError("ERR syntax error")
		return
	}
	if err := cn.tbl.CheckKV(cn.ns, key, val, true); err != nil {
		cn.writeKVErr(err)
		return
	}
	set, err := cn.setLocked(key, val, atMs, nx, xx, keep)
	if err != nil {
		cn.writeKVErr(err)
		return
	}
	if !set {
		cn.writeNull()
		return
	}
	cn.writeSimple("OK")
}

// setLocked applies a SET under the key's stripe lock: the NX/XX
// existence gate, the upsert, one insert record (replay upserts too, and
// clears the key's TTL — Redis SET semantics for free), and the deadline:
// set with its own expire record, kept alive across replay by re-logging
// (KEEPTTL), or cleared.
func (cn *conn) setLocked(key, val []byte, atMs int64, nx, xx, keep bool) (bool, error) {
	hash := cn.tbl.HashOfKV(cn.ns, key)
	mu := cn.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	cn.lazyExpireLocked(cn.ns, key, hash)
	if nx || xx {
		_, exists := cn.h.GetKV(cn.ns, key)
		if (nx && exists) || (xx && !exists) {
			return false, nil
		}
	}
	if err := cn.upsertLocked(cn.ns, key, val, hash); err != nil {
		return false, err
	}
	if cn.log != nil {
		seq, err := cn.log.LogKVInsert(cn.ns, key, val)
		if err != nil {
			return false, err
		}
		cn.w.NeedSync(seq)
	}
	switch {
	case atMs > 0:
		cn.idx.ExpireAt(cn.ns, key, hash, atMs)
		if cn.log != nil {
			seq, err := cn.log.LogKVExpire(cn.ns, key, atMs)
			if err != nil {
				return false, err
			}
			cn.w.NeedSync(seq)
		}
	case keep:
		// The in-memory deadline survives untouched, but the insert
		// record clears it on replay — re-log it.
		if at, ok := cn.idx.Deadline(cn.ns, key, hash); ok && cn.log != nil {
			seq, err := cn.log.LogKVExpire(cn.ns, key, at)
			if err != nil {
				return false, err
			}
			cn.w.NeedSync(seq)
		}
	default:
		cn.idx.Remove(cn.ns, key, hash)
	}
	return true, nil
}

func (cn *conn) cmdSetNX(args [][]byte) {
	cn.barrier()
	if len(args) != 3 {
		cn.wrongArgs("setnx")
		return
	}
	key, val := args[1], args[2]
	if err := cn.tbl.CheckKV(cn.ns, key, val, true); err != nil {
		cn.writeKVErr(err)
		return
	}
	set, err := cn.setLocked(key, val, 0, true, false, false)
	if err != nil {
		cn.writeKVErr(err)
		return
	}
	if set {
		cn.writeInt(1)
	} else {
		cn.writeInt(0)
	}
}

func (cn *conn) cmdMSet(args [][]byte) {
	cn.barrier()
	if len(args) < 3 || (len(args)-1)%2 != 0 {
		cn.wrongArgs("mset")
		return
	}
	// Validate every pair before applying any: a late rejection must not
	// leave a half-applied MSET.
	for i := 1; i < len(args); i += 2 {
		if err := cn.tbl.CheckKV(cn.ns, args[i], args[i+1], true); err != nil {
			cn.writeKVErr(err)
			return
		}
	}
	for i := 1; i < len(args); i += 2 {
		if _, err := cn.setLocked(args[i], args[i+1], 0, false, false, false); err != nil {
			cn.writeKVErr(err)
			return
		}
	}
	cn.writeSimple("OK")
}

func (cn *conn) cmdDel(args [][]byte) {
	cn.barrier()
	if len(args) < 2 {
		cn.wrongArgs("del")
		return
	}
	var n int64
	for _, key := range args[1:] {
		if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
			continue
		}
		hash := cn.tbl.HashOfKV(cn.ns, key)
		mu := cn.idx.Lock(hash)
		mu.Lock()
		if !cn.lazyExpireLocked(cn.ns, key, hash) && cn.h.DeleteKVHashed(cn.ns, key, hash) {
			n++
			cn.idx.Remove(cn.ns, key, hash)
			if cn.log != nil {
				seq, err := cn.log.LogKVDelete(cn.ns, key)
				if err != nil {
					mu.Unlock()
					cn.writeKVErr(err)
					return
				}
				cn.w.NeedSync(seq)
			}
		}
		mu.Unlock()
	}
	cn.writeInt(n)
}

func (cn *conn) cmdIncr(args [][]byte, name string, sign int64, hasArg bool) {
	cn.barrier()
	want := 2
	if hasArg {
		want = 3
	}
	if len(args) != want {
		cn.wrongArgs(name)
		return
	}
	delta := sign
	if hasArg {
		n, ok := parseInt(args[2])
		if !ok {
			cn.writeError("ERR value is not an integer or out of range")
			return
		}
		delta = sign * n
	}
	key := args[1]
	if err := cn.tbl.CheckKV(cn.ns, key, nil, true); err != nil {
		cn.writeKVErr(err)
		return
	}
	hash := cn.tbl.HashOfKV(cn.ns, key)
	mu := cn.idx.Lock(hash)
	mu.Lock()
	cn.lazyExpireLocked(cn.ns, key, hash)
	var cur int64
	if v, ok := cn.h.GetKV(cn.ns, key); ok {
		c, ok2 := parseInt(v)
		if !ok2 {
			mu.Unlock()
			cn.writeError("ERR value is not an integer or out of range")
			return
		}
		cur = c
	}
	n := cur + delta
	if (delta > 0 && n < cur) || (delta < 0 && n > cur) {
		mu.Unlock()
		cn.writeError("ERR increment or decrement would overflow")
		return
	}
	var vbuf [24]byte
	val := strconv.AppendInt(vbuf[:0], n, 10)
	if err := cn.upsertLocked(cn.ns, key, val, hash); err != nil {
		mu.Unlock()
		cn.writeKVErr(err)
		return
	}
	if cn.log != nil {
		seq, err := cn.log.LogKVInsert(cn.ns, key, val)
		if err == nil {
			cn.w.NeedSync(seq)
			// INCR preserves the TTL; the insert record clears it on
			// replay, so a live deadline must be re-asserted in the log.
			if at, ok := cn.idx.Deadline(cn.ns, key, hash); ok {
				seq, err = cn.log.LogKVExpire(cn.ns, key, at)
				if err == nil {
					cn.w.NeedSync(seq)
				}
			}
		}
		if err != nil {
			mu.Unlock()
			cn.writeKVErr(err)
			return
		}
	}
	mu.Unlock()
	cn.writeInt(n)
}

// ---------------------------------------------------------------------------
// TTL commands
// ---------------------------------------------------------------------------

func (cn *conn) cmdExpire(args [][]byte, name string, unitMs int64) {
	cn.barrier()
	if len(args) != 3 {
		cn.wrongArgs(name)
		return
	}
	n, ok := parseInt(args[2])
	if !ok {
		cn.writeError("ERR value is not an integer or out of range")
		return
	}
	key := args[1]
	if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
		cn.writeInt(0)
		return
	}
	hash := cn.tbl.HashOfKV(cn.ns, key)
	mu := cn.idx.Lock(hash)
	mu.Lock()
	if cn.lazyExpireLocked(cn.ns, key, hash) {
		mu.Unlock()
		cn.writeInt(0)
		return
	}
	if _, ok := cn.h.GetKV(cn.ns, key); !ok {
		mu.Unlock()
		cn.writeInt(0)
		return
	}
	now := cn.idx.Now()
	at := now + n*unitMs
	var seq uint64
	var err error
	if at <= now {
		// A deadline in the past deletes immediately, like Redis; the
		// deletion is durable (a real delete record), not a lazy one.
		cn.h.DeleteKVHashed(cn.ns, key, hash)
		cn.idx.Remove(cn.ns, key, hash)
		if cn.log != nil {
			seq, err = cn.log.LogKVDelete(cn.ns, key)
		}
	} else {
		cn.idx.ExpireAt(cn.ns, key, hash, at)
		if cn.log != nil {
			seq, err = cn.log.LogKVExpire(cn.ns, key, at)
		}
	}
	mu.Unlock()
	if err != nil {
		cn.writeKVErr(err)
		return
	}
	cn.w.NeedSync(seq)
	cn.writeInt(1)
}

func (cn *conn) cmdTTL(args [][]byte, name string, inMs bool) {
	cn.barrier()
	if len(args) != 2 {
		cn.wrongArgs(name)
		return
	}
	key := args[1]
	if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
		cn.writeInt(-2)
		return
	}
	hash := cn.tbl.HashOfKV(cn.ns, key)
	mu := cn.idx.Lock(hash)
	mu.Lock()
	defer mu.Unlock()
	if cn.lazyExpireLocked(cn.ns, key, hash) {
		cn.writeInt(-2)
		return
	}
	if _, ok := cn.h.GetKV(cn.ns, key); !ok {
		cn.writeInt(-2)
		return
	}
	at, ok := cn.idx.Deadline(cn.ns, key, hash)
	if !ok {
		cn.writeInt(-1)
		return
	}
	rem := at - cn.idx.Now()
	if inMs {
		cn.writeInt(rem)
	} else {
		cn.writeInt((rem + 999) / 1000)
	}
}

func (cn *conn) cmdPersist(args [][]byte) {
	cn.barrier()
	if len(args) != 2 {
		cn.wrongArgs("persist")
		return
	}
	key := args[1]
	if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
		cn.writeInt(0)
		return
	}
	hash := cn.tbl.HashOfKV(cn.ns, key)
	mu := cn.idx.Lock(hash)
	mu.Lock()
	if cn.lazyExpireLocked(cn.ns, key, hash) || !cn.idx.Remove(cn.ns, key, hash) {
		mu.Unlock()
		cn.writeInt(0)
		return
	}
	var seq uint64
	var err error
	if cn.log != nil {
		seq, err = cn.log.LogKVExpire(cn.ns, key, 0)
	}
	mu.Unlock()
	if err != nil {
		cn.writeKVErr(err)
		return
	}
	cn.w.NeedSync(seq)
	cn.writeInt(1)
}

// ---------------------------------------------------------------------------
// Connection commands and handshake stubs
// ---------------------------------------------------------------------------

var selectProbe = []byte{'p'}

func (cn *conn) cmdSelect(args [][]byte) {
	cn.barrier()
	if len(args) != 2 {
		cn.wrongArgs("select")
		return
	}
	n, ok := parseInt(args[1])
	if !ok || n < 0 || n > core.MaxNamespace {
		cn.writeError("ERR DB index is out of range")
		return
	}
	// DB 0 is namespace 0, always valid; others need a Namespaces table.
	if n > 0 {
		if err := cn.tbl.CheckKV(uint16(n), selectProbe, nil, false); err != nil {
			cn.writeError("ERR DB index is out of range")
			return
		}
	}
	cn.ns = uint16(n)
	cn.writeSimple("OK")
}

func (cn *conn) cmdConfig(args [][]byte) {
	cn.barrier()
	if len(args) < 2 {
		cn.wrongArgs("config")
		return
	}
	var sbuf [16]byte
	switch string(upperTo(sbuf[:0], args[1])) {
	case "GET":
		// Empty result: benchmarks probe save/appendonly and accept none.
		cn.writeArrayHeader(0)
	case "SET", "RESETSTAT":
		cn.writeSimple("OK")
	default:
		cn.writeError("ERR unknown CONFIG subcommand")
	}
}

func (cn *conn) cmdInfo(args [][]byte) {
	cn.barrier()
	durable := "0"
	if cn.log != nil {
		durable = "1"
	}
	info := "# Server\r\nredis_version:7.0.0\r\ndlht:1\r\n" +
		"# Replication\r\nrole:master\r\n" +
		"# Keyspace\r\ndurable:" + durable + "\r\n"
	cn.writeBulk([]byte(info))
}
