package server

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest throws arbitrary bytes at the request decoder. The
// decoder must never panic; whenever it accepts a frame, re-encoding the
// decoded request must reproduce the frame's first ReqSize bytes.
func FuzzDecodeRequest(f *testing.F) {
	// Valid frames for every opcode.
	f.Add(AppendRequest(nil, Request{Op: OpGet, Key: 1}))
	f.Add(AppendRequest(nil, Request{Op: OpPut, Key: 2, Value: 3}))
	f.Add(AppendRequest(nil, Request{Op: OpInsert, Key: ^uint64(0), Value: 4}))
	f.Add(AppendRequest(nil, Request{Op: OpDelete, Key: 5}))
	// Malformed seeds: bad opcode, truncated, empty, oversized.
	bad := AppendRequest(nil, Request{Op: OpGet, Key: 6})
	bad[0] = 0x7f
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, ReqSize*3))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRequest(data)
		if err != nil {
			return
		}
		if r.Op >= opCodeEnd {
			t.Fatalf("decoder accepted invalid opcode %d", r.Op)
		}
		if got := AppendRequest(nil, r); !bytes.Equal(got, data[:ReqSize]) {
			t.Fatalf("re-encode mismatch: %x != %x", got, data[:ReqSize])
		}
	})
}

// FuzzDecodeKVRequest throws arbitrary bytes at the variable-length KV
// request decoder. The decoder must never panic; whenever it accepts a
// frame, re-encoding the decoded request must reproduce exactly the bytes
// it reported consuming.
func FuzzDecodeKVRequest(f *testing.F) {
	mustKV := func(r KVRequest) []byte {
		b, err := AppendKVRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(mustKV(KVRequest{Op: OpGetKV, NS: 1, Key: []byte("k")}))
	f.Add(mustKV(KVRequest{Op: OpInsertKV, NS: 0, Key: []byte("key"), Value: []byte("value")}))
	f.Add(mustKV(KVRequest{Op: OpDeleteKV, NS: 4095, Key: bytes.Repeat([]byte("K"), 300)}))
	// Malformed seeds: empty key, value on a Get, truncated, huge declared
	// value length.
	f.Add([]byte{byte(OpGetKV), 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{byte(OpGetKV), 0, 0, 1, 0, 5, 0, 0, 0, 'k'})
	f.Add([]byte{byte(OpInsertKV), 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 'k'})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := DecodeKVRequest(data)
		if err != nil {
			return
		}
		if n < KVReqHdrSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		got, err := AppendKVRequest(nil, r)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encode mismatch: %x != %x", got, data[:n])
		}
	})
}

// FuzzDecodeKVResponse: same contract for the KV response decoder.
func FuzzDecodeKVResponse(f *testing.F) {
	f.Add(AppendKVResponse(nil, KVResponse{Status: StatusOK, Value: []byte("v")}))
	f.Add(AppendKVResponse(nil, KVResponse{Status: StatusNotFound}))
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, n, err := DecodeKVResponse(data)
		if err != nil {
			return
		}
		if n < KVRespHdrSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if got := AppendKVResponse(nil, r); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encode mismatch: %x != %x", got, data[:n])
		}
	})
}

// FuzzDecodeHello: the handshake decoder must never panic and must
// round-trip every frame it accepts.
func FuzzDecodeHello(f *testing.F) {
	ok, err := AppendHello(nil, Hello{Version: ProtocolV2, Features: FeatureKV, Table: "users"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ok)
	f.Add([]byte{HelloMagic, ProtocolV2, 0, 0, 0})
	f.Add([]byte{HelloMagic, ProtocolV2, 0, 0, 200, 'a'}) // truncated name
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, n, err := DecodeHello(data)
		if err != nil {
			return
		}
		if n < HelloFixedSize || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		got, err := AppendHello(nil, h)
		if err != nil {
			t.Fatalf("re-encode of accepted handshake failed: %v", err)
		}
		if !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encode mismatch: %x != %x", got, data[:n])
		}
	})
}

// FuzzDecodeResponse: same contract for the response decoder.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(AppendResponse(nil, Response{Status: StatusOK, Result: 1}))
	f.Add(AppendResponse(nil, Response{Status: StatusBadRequest}))
	f.Add([]byte{})
	f.Add([]byte{0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResponse(data)
		if err != nil {
			return
		}
		if got := AppendResponse(nil, r); !bytes.Equal(got, data[:RespSize]) {
			t.Fatalf("re-encode mismatch: %x != %x", got, data[:RespSize])
		}
	})
}

// FuzzParseRequests throws arbitrary bytes, after a handshake granting the
// KV and reshard frames, at the binary parser on the connection's read
// loop. It must never panic, must keep the engine.Parser contract (play
// checks every call: never consume past the buffer, ask for more than is
// buffered whenever nothing was consumed), and must answer the same bytes
// whether the stream arrives in one write or one byte per write.
func FuzzParseRequests(f *testing.F) {
	// FuzzDecodeRequest's and FuzzDecodeKVRequest's seeds, and a run of
	// them.
	var run []byte
	for _, r := range []Request{{Op: OpGet, Key: 1}, {Op: OpPut, Key: 2, Value: 3}, {Op: OpInsert, Key: ^uint64(0), Value: 4}, {Op: OpDelete, Key: 5}} {
		f.Add(AppendRequest(nil, r))
		run = AppendRequest(run, r)
	}
	bad := AppendRequest(nil, Request{Op: OpGet, Key: 6})
	bad[0] = 0x7f
	f.Add(bad)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01})
	f.Add(bytes.Repeat([]byte{0xff}, ReqSize*3))
	for _, r := range []KVRequest{
		{Op: OpGetKV, NS: 1, Key: []byte("k")},
		{Op: OpInsertKV, NS: 0, Key: []byte("key"), Value: []byte("value")},
		{Op: OpDeleteKV, NS: 4095, Key: bytes.Repeat([]byte("K"), 300)},
	} {
		b, err := AppendKVRequest(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		run = append(run, b...)
	}
	f.Add([]byte{byte(OpGetKV), 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{byte(OpGetKV), 0, 0, 1, 0, 5, 0, 0, 0, 'k'})
	f.Add([]byte{byte(OpInsertKV), 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff, 'k'})
	f.Add(append(run, byte(OpScan)))

	f.Fuzz(func(t *testing.T, data []byte) {
		stream := append(helloFrame(t, DefaultTable), data...)
		whole := play(t, splitServer(t), stream, len(stream))
		split := play(t, splitServer(t), stream, 1)
		if !bytes.Equal(whole, split) {
			t.Fatalf("%d reply bytes from one write, %d from byte writes, and they differ", len(whole), len(split))
		}
	})
}
