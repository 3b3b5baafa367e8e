package server

import (
	"encoding/binary"
	"fmt"
)

// The handshake exchanged once per connection, and the variable-length KV
// and reshard frames that follow it beside the fixed 17-byte frames of
// protocol.go; the frame families are distinguished by the opcode byte.

// ProtocolV2 is the one protocol version the server speaks. Version 1 had
// no handshake — the connection's first byte was already an opcode — and
// is refused with StatusBadVersion.
const ProtocolV2 = 2

// HelloMagic is the first byte of a handshake, and so of every connection
// the server accepts. It is outside the opcode space, so a request frame
// sent without a handshake cannot be mistaken for one.
const HelloMagic = 0xD7

// Feature bits negotiated by the handshake. The client requests a set; the
// server grants the intersection with what it supports.
const (
	// FeatureKV enables the variable-length KV frames (OpGetKV,
	// OpInsertKV, OpDeleteKV) on the connection.
	FeatureKV uint16 = 1 << 0

	// FeatureReshard enables the resharding/anti-entropy frames (OpGetVer,
	// OpScan) on the connection. Ordinary clients do not request it (see
	// clientDefaultFeatures); the cluster coordinator and scrubber open
	// dedicated connections that do.
	FeatureReshard uint16 = 1 << 1

	// supportedFeatures is what this server build grants.
	supportedFeatures = FeatureKV | FeatureReshard
)

// Handshake frame sizes.
const (
	// HelloFixedSize is the fixed prefix of the client hello; the table
	// name (up to MaxTableName bytes) follows it.
	//
	//	offset 0   1 byte   HelloMagic
	//	offset 1   1 byte   requested protocol version
	//	offset 2   2 bytes  requested feature bits
	//	offset 4   1 byte   table name length n (0 = default table)
	//	offset 5   n bytes  table name
	HelloFixedSize = 5
	// HelloRespSize is the server's fixed handshake reply.
	//
	//	offset 0   1 byte   HelloMagic
	//	offset 1   1 byte   granted protocol version
	//	offset 2   2 bytes  granted feature bits
	//	offset 4   1 byte   status (StatusOK, StatusBadVersion,
	//	                    StatusUnknownTable); on non-OK the server
	//	                    closes the connection
	HelloRespSize = 5
	// MaxTableName bounds the table selector (it must fit the 1-byte
	// length field).
	MaxTableName = 255
)

// Hello is the decoded client handshake.
type Hello struct {
	Version  uint8
	Features uint16
	Table    string
}

// HelloResp is the decoded server handshake reply.
type HelloResp struct {
	Version  uint8
	Features uint16
	Status   Status
}

// AppendHello appends the handshake encoding of h to dst.
func AppendHello(dst []byte, h Hello) ([]byte, error) {
	if len(h.Table) > MaxTableName {
		return nil, fmt.Errorf("%w: table name %d bytes (max %d)", ErrBadFrame, len(h.Table), MaxTableName)
	}
	dst = append(dst, HelloMagic, h.Version)
	dst = binary.LittleEndian.AppendUint16(dst, h.Features)
	dst = append(dst, byte(len(h.Table)))
	return append(dst, h.Table...), nil
}

// DecodeHello decodes a handshake at the start of b, returning it together
// with the number of bytes consumed.
func DecodeHello(b []byte) (Hello, int, error) {
	if len(b) < HelloFixedSize {
		return Hello{}, 0, ErrShortFrame
	}
	if b[0] != HelloMagic {
		return Hello{}, 0, fmt.Errorf("%w: not a handshake (first byte %#x)", ErrBadFrame, b[0])
	}
	n := int(b[4])
	if len(b) < HelloFixedSize+n {
		return Hello{}, 0, ErrShortFrame
	}
	return Hello{
		Version:  b[1],
		Features: binary.LittleEndian.Uint16(b[2:4]),
		Table:    string(b[HelloFixedSize : HelloFixedSize+n]),
	}, HelloFixedSize + n, nil
}

// AppendHelloResp appends the handshake-reply encoding of r to dst.
func AppendHelloResp(dst []byte, r HelloResp) []byte {
	dst = append(dst, HelloMagic, r.Version)
	dst = binary.LittleEndian.AppendUint16(dst, r.Features)
	return append(dst, byte(r.Status))
}

// DecodeHelloResp decodes the fixed handshake reply at the start of b.
func DecodeHelloResp(b []byte) (HelloResp, error) {
	if len(b) < HelloRespSize {
		return HelloResp{}, ErrShortFrame
	}
	if b[0] != HelloMagic {
		return HelloResp{}, fmt.Errorf("%w: not a handshake reply (first byte %#x)", ErrBadFrame, b[0])
	}
	return HelloResp{
		Version:  b[1],
		Features: binary.LittleEndian.Uint16(b[2:4]),
		Status:   Status(b[4]),
	}, nil
}

// ---------------------------------------------------------------------------
// KV frames
// ---------------------------------------------------------------------------

// KV opcodes, valid on connections with FeatureKV granted. Values are wire
// format — do not reorder. They continue the fixed-frame opcode space so
// one byte dispatches both frame families.
const (
	// OpGetKV reads a byte key under a namespace.
	OpGetKV OpCode = opCodeEnd + iota
	// OpInsertKV adds a byte key/value pair under a namespace.
	OpInsertKV
	// OpDeleteKV removes a byte key under a namespace.
	OpDeleteKV
	kvOpCodeEnd // first opcode past the KV frames
)

// KV frame geometry.
const (
	// KVReqHdrSize is the fixed header of a KV request; key and value
	// bytes follow.
	//
	//	offset 0   1 byte   opcode (OpGetKV, OpInsertKV, OpDeleteKV)
	//	offset 1   2 bytes  namespace
	//	offset 3   2 bytes  key length (1..65535)
	//	offset 5   4 bytes  value length (0 except OpInsertKV)
	//	offset 9   key bytes, then value bytes
	KVReqHdrSize = 9
	// KVRespHdrSize is the fixed header of a KV response; value bytes
	// follow.
	//
	//	offset 0   1 byte   status
	//	offset 1   4 bytes  value length (0 except StatusOK GetKV replies)
	//	offset 5   value bytes
	KVRespHdrSize = 5
	// MaxKVValue bounds a value's wire size; a header announcing more is
	// rejected as malformed before any allocation happens.
	MaxKVValue = 16 << 20
)

// isKVOp reports whether op is a KV opcode.
func isKVOp(op OpCode) bool { return op >= OpGetKV && op < kvOpCodeEnd }

// ---------------------------------------------------------------------------
// Reshard frames
// ---------------------------------------------------------------------------

// Reshard opcodes, valid on connections with FeatureReshard granted.
// Values are wire format — do not reorder.
const (
	// OpGetVer reads a key together with its applied-mutation version
	// (core.VersionReader); tables without Config.TrackVersions answer
	// version 0.
	OpGetVer OpCode = kvOpCodeEnd + iota
	// OpScan advances the resumable migration cursor (core.Scanner) and
	// streams back one batch of entries.
	OpScan
	reshardOpCodeEnd // first invalid reshard opcode
)

// Reshard frame geometry. Everything little-endian, like the rest of the
// protocol.
const (
	// GetVerReqSize is a versioned read request.
	//
	//	offset 0   1 byte   OpGetVer
	//	offset 1   8 bytes  key
	GetVerReqSize = 9
	// GetVerRespSize is the reply; an Allocator-mode table answers both
	// reshard frames StatusWrongMode with a zero body of the frame's size.
	//
	//	offset 0   1 byte   status (StatusOK / StatusNotFound; the version
	//	                    is meaningful either way — a tombstone has one)
	//	offset 1   8 bytes  value (0 on miss)
	//	offset 9   8 bytes  version
	GetVerRespSize = 17
	// ScanReqSize is a cursor step request (core.Scanner semantics: the
	// zero core.Cursor starts a pass; thread the returned cursor through
	// subsequent steps).
	//
	//	offset 0   1 byte   OpScan
	//	offset 1   8 bytes  cursor Bins
	//	offset 9   8 bytes  cursor Next
	//	offset 17  4 bytes  maxEnts
	ScanReqSize = 21
	// ScanRespHdrSize is the fixed prefix of a cursor step reply;
	// count × 16 bytes of (key, value) pairs follow.
	//
	//	offset 0   1 byte   status
	//	offset 1   8 bytes  cursor Bins (echo into the next step)
	//	offset 9   8 bytes  cursor Next
	//	offset 17  1 byte   done (1 = cursor exhausted)
	//	offset 18  4 bytes  count
	ScanRespHdrSize = 22
	// MaxScanBatch caps the maxEnts a client may request in one OpScan;
	// the server clamps larger requests. A reply can overshoot it by the
	// final bin group (the cursor consumes whole old bins), so clients
	// bound the announced count with slack rather than exactly.
	MaxScanBatch = 4096
)

// isReshardOp reports whether op is a reshard opcode.
func isReshardOp(op OpCode) bool { return op >= OpGetVer && op < reshardOpCodeEnd }

// KVRequest is one decoded variable-length request frame. Key and Value
// alias the decode input.
type KVRequest struct {
	Op    OpCode
	NS    uint16
	Key   []byte
	Value []byte
}

// KVResponse is one decoded variable-length response frame. Value aliases
// the decode input.
type KVResponse struct {
	Status Status
	Value  []byte
}

// AppendKVRequest appends the variable-length encoding of r to dst.
func AppendKVRequest(dst []byte, r KVRequest) ([]byte, error) {
	if !isKVOp(r.Op) {
		return nil, fmt.Errorf("%w: %d is not a KV opcode", ErrBadOpCode, r.Op)
	}
	if len(r.Key) == 0 || len(r.Key) > 0xffff {
		return nil, fmt.Errorf("%w: key length %d (want 1..65535)", ErrBadFrame, len(r.Key))
	}
	if len(r.Value) > MaxKVValue {
		return nil, fmt.Errorf("%w: value length %d exceeds %d", ErrBadFrame, len(r.Value), MaxKVValue)
	}
	if r.Op != OpInsertKV && len(r.Value) != 0 {
		return nil, fmt.Errorf("%w: %v carries a value", ErrBadFrame, r.Op)
	}
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint16(dst, r.NS)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Value)))
	dst = append(dst, r.Key...)
	return append(dst, r.Value...), nil
}

// DecodeKVRequest decodes the KV request frame at the start of b, returning
// it together with the number of bytes consumed. Key and Value alias b.
func DecodeKVRequest(b []byte) (KVRequest, int, error) {
	if len(b) < KVReqHdrSize {
		return KVRequest{}, 0, ErrShortFrame
	}
	op := OpCode(b[0])
	if !isKVOp(op) {
		return KVRequest{}, 0, fmt.Errorf("%w: %d", ErrBadOpCode, b[0])
	}
	ns := binary.LittleEndian.Uint16(b[1:3])
	klen := int(binary.LittleEndian.Uint16(b[3:5]))
	vlen := int(binary.LittleEndian.Uint32(b[5:9]))
	if klen == 0 {
		return KVRequest{}, 0, fmt.Errorf("%w: empty key", ErrBadFrame)
	}
	if vlen > MaxKVValue {
		return KVRequest{}, 0, fmt.Errorf("%w: value length %d exceeds %d", ErrBadFrame, vlen, MaxKVValue)
	}
	if op != OpInsertKV && vlen != 0 {
		return KVRequest{}, 0, fmt.Errorf("%w: %v carries a value", ErrBadFrame, op)
	}
	total := KVReqHdrSize + klen + vlen
	if len(b) < total {
		return KVRequest{}, 0, ErrShortFrame
	}
	r := KVRequest{Op: op, NS: ns, Key: b[KVReqHdrSize : KVReqHdrSize+klen]}
	if vlen > 0 {
		r.Value = b[KVReqHdrSize+klen : total]
	}
	return r, total, nil
}

// AppendKVResponse appends the variable-length encoding of r to dst.
func AppendKVResponse(dst []byte, r KVResponse) []byte {
	dst = append(dst, byte(r.Status))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Value)))
	return append(dst, r.Value...)
}

// DecodeKVResponse decodes the KV response frame at the start of b,
// returning it together with the number of bytes consumed. Value aliases b.
func DecodeKVResponse(b []byte) (KVResponse, int, error) {
	if len(b) < KVRespHdrSize {
		return KVResponse{}, 0, ErrShortFrame
	}
	vlen := int(binary.LittleEndian.Uint32(b[1:5]))
	if vlen > MaxKVValue {
		return KVResponse{}, 0, fmt.Errorf("%w: value length %d exceeds %d", ErrBadFrame, vlen, MaxKVValue)
	}
	if len(b) < KVRespHdrSize+vlen {
		return KVResponse{}, 0, ErrShortFrame
	}
	r := KVResponse{Status: Status(b[0])}
	if vlen > 0 {
		r.Value = b[KVRespHdrSize : KVRespHdrSize+vlen]
	}
	return r, KVRespHdrSize + vlen, nil
}
