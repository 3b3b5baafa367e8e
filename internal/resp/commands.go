package resp

import (
	"errors"
	"strconv"

	core "repro/internal/core"
	"repro/internal/expiry"
)

// Command dispatch. GET and MGET are the streamed path: their keys go to
// the engine's Get, and their replies are written by replyGet in enqueue
// order. Every other command is a barrier — it drains the engine first, so
// its inline reply cannot overtake a pipelined lookup's.

func upperTo(dst, src []byte) []byte {
	for _, c := range src {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

func (cn *conn) dispatch(args [][]byte) {
	if len(args[0]) > 32 {
		cn.Barrier()
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
		cn.Barrier()
		if len(args) > 1 {
			cn.writeBulk(args[1])
		} else {
			cn.writeSimple("PONG")
		}
	case "ECHO":
		cn.Barrier()
		if len(args) != 2 {
			cn.wrongArgs("echo")
			return
		}
		cn.writeBulk(args[1])
	case "SELECT":
		cn.cmdSelect(args)
	case "QUIT":
		cn.Barrier()
		cn.writeSimple("OK")
		cn.closed = true
	case "DBSIZE":
		cn.Barrier()
		cn.writeInt(int64(cn.H.Len()))
	case "COMMAND":
		// Handshake stub: clients probe COMMAND / COMMAND DOCS at connect
		// and tolerate an empty table.
		cn.Barrier()
		cn.writeArrayHeader(0)
	case "CONFIG":
		cn.cmdConfig(args)
	case "INFO":
		cn.cmdInfo(args)
	default:
		cn.Barrier()
		cn.writeError("ERR unknown command '" + string(args[0]) + "'")
	}
}

func (cn *conn) wrongArgs(name string) {
	cn.writeError("ERR wrong number of arguments for '" + name + "' command")
}

func (cn *conn) writeKVErr(err error) {
	cn.writeError("ERR " + err.Error())
}

// writeFlag answers a command whose reply is :1 or :0.
func (cn *conn) writeFlag(ok bool, err error) {
	switch {
	case err != nil:
		cn.writeKVErr(err)
	case ok:
		cn.writeInt(1)
	default:
		cn.writeInt(0)
	}
}

// INCR's refusals, worded as Redis words them behind "ERR ".
var (
	errNotInt   = errors.New("value is not an integer or out of range")
	errOverflow = errors.New("increment or decrement would overflow")
)

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

func (cn *conn) cmdGet(args [][]byte) {
	if len(args) != 2 {
		cn.Barrier()
		cn.wrongArgs("get")
		return
	}
	key := args[1]
	if err := cn.tbl.CheckKV(cn.ns, key, nil, false); err != nil {
		cn.Barrier()
		cn.writeKVErr(err)
		return
	}
	cn.Get(cn.ns, key, cn.tbl.HashOfKV(cn.ns, key))
}

func (cn *conn) cmdMGet(args [][]byte) {
	if len(args) < 2 {
		cn.Barrier()
		cn.wrongArgs("mget")
		return
	}
	// The *N header must precede the first value, so the pipeline has to
	// be empty when it goes out; the per-key replies then stream from
	// OnComplete like plain GETs.
	cn.Barrier()
	cn.writeArrayHeader(len(args) - 1)
	for _, key := range args[1:] {
		if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
			// An unstorable key cannot exist: nil, ordered via barrier.
			cn.Barrier()
			cn.writeNull()
			continue
		}
		cn.Get(cn.ns, key, cn.tbl.HashOfKV(cn.ns, key))
	}
}

func (cn *conn) cmdExists(args [][]byte) {
	cn.Barrier()
	if len(args) < 2 {
		cn.wrongArgs("exists")
		return
	}
	var n int64
	for _, key := range args[1:] {
		if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
			continue
		}
		if _, _, exists := cn.KV.TTL(cn.ns, key, cn.tbl.HashOfKV(cn.ns, key)); exists {
			n++
		}
	}
	cn.writeInt(n)
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

func (cn *conn) cmdSet(args [][]byte) {
	cn.Barrier()
	if len(args) < 3 {
		cn.wrongArgs("set")
		return
	}
	key, val := args[1], args[2]
	var atMs int64
	var flags expiry.SetFlags
	for i := 3; i < len(args); i++ {
		var obuf [8]byte
		switch string(upperTo(obuf[:0], args[i])) {
		case "NX":
			flags |= expiry.NX
		case "XX":
			flags |= expiry.XX
		case "KEEPTTL":
			flags |= expiry.KeepTTL
		case "EX", "PX", "EXAT", "PXAT":
			if i+1 >= len(args) {
				cn.writeError("ERR syntax error")
				return
			}
			n, ok := parseInt(args[i+1])
			if !ok {
				cn.writeKVErr(errNotInt)
				return
			}
			var obuf2 [8]byte
			switch string(upperTo(obuf2[:0], args[i])) {
			case "EX":
				if n <= 0 {
					cn.writeError("ERR invalid expire time in 'set' command")
					return
				}
				atMs = cn.Now() + n*1000
			case "PX":
				if n <= 0 {
					cn.writeError("ERR invalid expire time in 'set' command")
					return
				}
				atMs = cn.Now() + n
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
	if flags&expiry.NX != 0 && flags&expiry.XX != 0 {
		cn.writeError("ERR syntax error")
		return
	}
	if err := cn.tbl.CheckKV(cn.ns, key, val, true); err != nil {
		cn.writeKVErr(err)
		return
	}
	set, seq, err := cn.KV.Set(cn.ns, key, val, cn.tbl.HashOfKV(cn.ns, key), atMs, flags)
	cn.W.NeedSync(seq)
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

func (cn *conn) cmdSetNX(args [][]byte) {
	cn.Barrier()
	if len(args) != 3 {
		cn.wrongArgs("setnx")
		return
	}
	key, val := args[1], args[2]
	if err := cn.tbl.CheckKV(cn.ns, key, val, true); err != nil {
		cn.writeKVErr(err)
		return
	}
	set, seq, err := cn.KV.Set(cn.ns, key, val, cn.tbl.HashOfKV(cn.ns, key), 0, expiry.NX)
	cn.W.NeedSync(seq)
	cn.writeFlag(set, err)
}

func (cn *conn) cmdMSet(args [][]byte) {
	cn.Barrier()
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
		_, seq, err := cn.KV.Set(cn.ns, args[i], args[i+1], cn.tbl.HashOfKV(cn.ns, args[i]), 0, 0)
		cn.W.NeedSync(seq)
		if err != nil {
			cn.writeKVErr(err)
			return
		}
	}
	cn.writeSimple("OK")
}

func (cn *conn) cmdDel(args [][]byte) {
	cn.Barrier()
	if len(args) < 2 {
		cn.wrongArgs("del")
		return
	}
	var n int64
	for _, key := range args[1:] {
		if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
			continue
		}
		deleted, seq, err := cn.KV.Delete(cn.ns, key, cn.tbl.HashOfKV(cn.ns, key))
		cn.W.NeedSync(seq)
		if err != nil {
			cn.writeKVErr(err)
			return
		}
		if deleted {
			n++
		}
	}
	cn.writeInt(n)
}

func (cn *conn) cmdIncr(args [][]byte, name string, sign int64, hasArg bool) {
	cn.Barrier()
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
			cn.writeKVErr(errNotInt)
			return
		}
		delta = sign * n
	}
	key := args[1]
	if err := cn.tbl.CheckKV(cn.ns, key, nil, true); err != nil {
		cn.writeKVErr(err)
		return
	}
	var n int64
	var vbuf [24]byte
	seq, err := cn.KV.Update(cn.ns, key, cn.tbl.HashOfKV(cn.ns, key), func(cur []byte, ok bool) ([]byte, error) {
		var c int64
		if ok {
			if c, ok = parseInt(cur); !ok {
				return nil, errNotInt
			}
		}
		n = c + delta
		if (delta > 0 && n < c) || (delta < 0 && n > c) {
			return nil, errOverflow
		}
		return strconv.AppendInt(vbuf[:0], n, 10), nil
	})
	cn.W.NeedSync(seq)
	if err != nil {
		cn.writeKVErr(err)
		return
	}
	cn.writeInt(n)
}

// ---------------------------------------------------------------------------
// TTL commands
// ---------------------------------------------------------------------------

func (cn *conn) cmdExpire(args [][]byte, name string, unitMs int64) {
	cn.Barrier()
	if len(args) != 3 {
		cn.wrongArgs(name)
		return
	}
	n, ok := parseInt(args[2])
	if !ok {
		cn.writeKVErr(errNotInt)
		return
	}
	key := args[1]
	if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
		cn.writeInt(0)
		return
	}
	found, seq, err := cn.KV.ExpireAt(cn.ns, key, cn.tbl.HashOfKV(cn.ns, key), cn.Now()+n*unitMs)
	cn.W.NeedSync(seq)
	cn.writeFlag(found, err)
}

func (cn *conn) cmdTTL(args [][]byte, name string, inMs bool) {
	cn.Barrier()
	if len(args) != 2 {
		cn.wrongArgs(name)
		return
	}
	key := args[1]
	if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
		cn.writeInt(-2)
		return
	}
	rem, hasTTL, exists := cn.KV.TTL(cn.ns, key, cn.tbl.HashOfKV(cn.ns, key))
	switch {
	case !exists:
		cn.writeInt(-2)
	case !hasTTL:
		cn.writeInt(-1)
	case inMs:
		cn.writeInt(rem)
	default:
		cn.writeInt((rem + 999) / 1000)
	}
}

func (cn *conn) cmdPersist(args [][]byte) {
	cn.Barrier()
	if len(args) != 2 {
		cn.wrongArgs("persist")
		return
	}
	key := args[1]
	if cn.tbl.CheckKV(cn.ns, key, nil, false) != nil {
		cn.writeInt(0)
		return
	}
	removed, seq, err := cn.KV.Persist(cn.ns, key, cn.tbl.HashOfKV(cn.ns, key))
	cn.W.NeedSync(seq)
	cn.writeFlag(removed, err)
}

// ---------------------------------------------------------------------------
// Connection commands and handshake stubs
// ---------------------------------------------------------------------------

var selectProbe = []byte{'p'}

func (cn *conn) cmdSelect(args [][]byte) {
	cn.Barrier()
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
	cn.Barrier()
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
	cn.Barrier()
	durable := "0"
	if cn.durable {
		durable = "1"
	}
	info := "# Server\r\nredis_version:7.0.0\r\ndlht:1\r\n" +
		"# Replication\r\nrole:master\r\n" +
		"# Keyspace\r\ndurable:" + durable + "\r\n"
	cn.writeBulk([]byte(info))
}
