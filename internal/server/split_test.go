package server

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"

	core "repro/internal/core"
	"repro/internal/engine"
)

// scriptConn is a connection whose peer sent a fixed byte stream, chunk
// bytes per write, and then closed its side; every reply is kept. Only
// Read and Write are used: the servers it is given set no idle timeout.
type scriptConn struct {
	net.Conn
	in    []byte
	chunk int
	out   bytes.Buffer
}

func (c *scriptConn) Read(b []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := copy(b[:min(len(b), c.chunk)], c.in)
	c.in = c.in[n:]
	return n, nil
}

func (c *scriptConn) Write(b []byte) (int, error) { return c.out.Write(b) }

// splitServer serves a fresh inlined default table and a fresh kv table
// "kv", with a read buffer smaller than the largest frames sent to it.
func splitServer(t testing.TB) *Server {
	s := New(core.MustNew(core.Config{Bins: 64, Resizable: true}), Options{ReadBuffer: 1 << 10})
	kv := core.MustNew(core.Config{Bins: 64, Resizable: true, Mode: core.Allocator, VariableKV: true, EpochGC: true})
	if err := s.AddTable("kv", kv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// play serves one binary connection on s whose peer sends stream chunk
// bytes per write, and returns every reply byte. It is serveConn with each
// parser call checked against the engine.Parser contract.
func play(t testing.TB, s *Server, stream []byte, chunk int) []byte {
	c := &scriptConn{in: stream, chunk: chunk}
	bc := &binConn{s: s, c: c}
	engine.Serve(c, s.opts.ReadBuffer, bc.idle, func(buf []byte) (used, need int, err error) {
		used, need, err = bc.parse(buf)
		if err == nil && (used > len(buf) || used == 0 && need <= len(buf)) {
			t.Fatalf("parser consumed %d of %d bytes and asked for %d", used, len(buf), need)
		}
		return used, need, err
	})
	bc.close()
	return c.out.Bytes()
}

func helloFrame(t testing.TB, table string) []byte {
	b, err := AppendHello(nil, Hello{Version: ProtocolV2, Features: FeatureKV | FeatureReshard, Table: table})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func kvFrame(t testing.TB, op OpCode, key, val string) []byte {
	b, err := AppendKVRequest(nil, KVRequest{Op: op, Key: []byte(key), Value: []byte(val)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSplitReadsReplyTheSame: a pipelined stream of fixed-frame runs, KV
// frames (one larger than the read buffer) and reshard frames, ending in a
// malformed frame, gets the same reply bytes whether it arrives in one
// write or one byte per write — on a table that serves the fixed frames
// and on one that serves the KV frames.
func TestSplitReadsReplyTheSame(t *testing.T) {
	big := string(bytes.Repeat([]byte("v"), 10<<10))
	for _, table := range []string{DefaultTable, "kv"} {
		stream := helloFrame(t, table)
		for i := uint64(0); i < 40; i++ {
			stream = AppendRequest(stream, Request{Op: OpInsert, Key: i, Value: i * 7})
		}
		stream = append(stream, kvFrame(t, OpInsertKV, "big", big)...)
		stream = append(stream, kvFrame(t, OpInsertKV, "k", "v")...)
		for i := uint64(0); i < 40; i += 3 {
			stream = AppendRequest(stream, Request{Op: OpGet, Key: i})
			stream = AppendRequest(stream, Request{Op: OpPut, Key: i, Value: i})
		}
		stream = append(stream, kvFrame(t, OpGetKV, "big", "")...)
		stream = append(stream, byte(OpGetVer))
		stream = binary.LittleEndian.AppendUint64(stream, 3)
		stream = append(stream, byte(OpScan))
		stream = append(stream, make([]byte, ScanReqSize-1)...)
		stream = append(stream, kvFrame(t, OpDeleteKV, "k", "")...)
		stream = AppendRequest(stream, Request{Op: OpDelete, Key: 5})
		stream = append(stream, kvFrame(t, OpGetKV, "k", "")...)
		stream = append(stream, 0xEE, 0, 0) // no such opcode

		whole := play(t, splitServer(t), stream, len(stream))
		split := play(t, splitServer(t), stream, 1)
		if !bytes.Equal(whole, split) {
			t.Fatalf("table %q: %d reply bytes from one write, %d from byte writes, and they differ", table, len(whole), len(split))
		}
		if last, err := DecodeResponse(whole[len(whole)-RespSize:]); err != nil || last.Status != StatusBadRequest {
			t.Fatalf("table %q: stream ends with %+v, %v; want one StatusBadRequest", table, last, err)
		}
		if table == "kv" && !bytes.Contains(whole, []byte(big)) {
			t.Fatal("GetKV of the frame larger than the read buffer did not return its value")
		}
	}
}
