// Package server exposes a DLHT table over TCP through a compact binary
// protocol, turning the paper's batching design (§3.3) into a network
// request pipeline.
//
// Clients pipeline request frames. The connection's engine
// (internal/engine, which RESP connections run on too) reads them into
// one buffer, and the binary parser decodes them there without blocking —
// the handshake, then runs of fixed frames, KV and reshard frames — and
// feeds them, as they are decoded, into the engine's pipelines on a table
// handle the connection owns, whose
// sliding-window software prefetch overlaps the DRAM latency of the burst
// — for a GetKV, of its bin and of its value's block. Completions append
// response frames to the connection's reply writer as they fire, so a
// deep burst's first replies stream out while its tail is still being
// decoded. Responses are written in request order — order
// preservation is DLHT's pipelining contract, and here it doubles as the
// wire protocol's matching rule: the i-th response on a connection
// answers the i-th request.
//
// Reply bytes reach the socket in exactly one place, the Flush method of
// internal/ackbuf's Writer, which first waits for the group commit
// covering every buffered reply: on a durable table no acknowledgement
// leaves before its redo-log record is fsynced, and no serving path can
// get that wrong because none of them holds the connection.
//
// # Wire format
//
// There is one protocol version (ProtocolV2). All integers are
// little-endian.
//
// A connection opens with a handshake (see protocol_v2.go) whose first
// byte is HelloMagic; it negotiates the protocol version, a feature set,
// and the named table the connection operates on. A connection that opens
// with anything else — such as a request frame of the retired
// handshake-less version 1 — is answered like a handshake asking for an
// unsupported version: one reply with StatusBadVersion, then close.
//
// After the handshake the connection carries fixed-size frames for Inlined
// operations. A request is 17 bytes:
//
//	offset 0   1 byte   opcode (OpGet, OpPut, OpInsert, OpDelete)
//	offset 1   8 bytes  key
//	offset 9   8 bytes  value (ignored by Get and Delete)
//
// and its response 9 bytes:
//
//	offset 0   1 byte   status
//	offset 1   8 bytes  result (read value, previous value, or existing
//	                    value on StatusExists; 0 otherwise)
//
// interleaved, when FeatureKV was granted, with variable-length KV frames
// (AppendKVRequest) that make Allocator-mode tables — byte-slice keys and
// values, namespaces — servable, and, when FeatureReshard was granted,
// with the versioned-read and scan frames resharding uses.
//
// A malformed frame elicits a single StatusBadRequest response after which
// the server closes the connection, since byte alignment can no longer be
// trusted. A server out of connection handles answers the connection's
// first request with StatusBusy and closes.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Frame sizes in bytes.
const (
	ReqSize  = 17
	RespSize = 9
)

// OpCode identifies a request operation.
type OpCode uint8

// Request opcodes. Values are wire format — do not reorder.
const (
	OpGet OpCode = iota
	OpPut
	OpInsert
	OpDelete
	opCodeEnd // first invalid opcode
)

// String returns the opcode mnemonic.
func (o OpCode) String() string {
	switch o {
	case OpGet:
		return "GET"
	case OpPut:
		return "PUT"
	case OpInsert:
		return "INSERT"
	case OpDelete:
		return "DELETE"
	}
	return fmt.Sprintf("OpCode(%d)", uint8(o))
}

// Status is the first byte of a response.
type Status uint8

// Response statuses. Values are wire format — do not reorder.
const (
	// StatusOK: Get/Put/Delete found the key, or Insert added it.
	StatusOK Status = iota
	// StatusNotFound: Get/Put/Delete missed.
	StatusNotFound
	// StatusExists: Insert hit an existing key; Result carries its value.
	StatusExists
	// StatusShadow: the key is locked by an uncommitted shadow insert.
	StatusShadow
	// StatusFull: the index is full and resizing is disabled.
	StatusFull
	// StatusReservedKey: the key collides with a resize transfer key.
	StatusReservedKey
	// StatusWrongMode: the operation is not available in the table's mode.
	StatusWrongMode
	// StatusValueSize: a KV insert's value size differs from the table's
	// fixed ValueSize (VariableKV disabled). KV frames only.
	StatusValueSize
	// StatusNamespace: a KV namespace id out of range or used on a table
	// without Namespaces enabled. KV frames only.
	StatusNamespace

	// StatusBadVersion: the handshake requested a protocol version the
	// server does not speak; the granted-version byte of the handshake
	// response carries what it does. The server closes after sending.
	StatusBadVersion Status = 252
	// StatusUnknownTable: the handshake named a table the server does not
	// host. The server closes after sending.
	StatusUnknownTable Status = 253
	// StatusBusy: the server is out of connection handles. Sent as the
	// reply to the connection's first request, after which the server
	// closes the connection; retry later or on another connection.
	StatusBusy Status = 254
	// StatusBadRequest: the frame was malformed; the server closes the
	// connection after sending it.
	StatusBadRequest Status = 255
)

// String returns the status mnemonic.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusNotFound:
		return "NOT_FOUND"
	case StatusExists:
		return "EXISTS"
	case StatusShadow:
		return "SHADOW"
	case StatusFull:
		return "FULL"
	case StatusReservedKey:
		return "RESERVED_KEY"
	case StatusWrongMode:
		return "WRONG_MODE"
	case StatusValueSize:
		return "VALUE_SIZE"
	case StatusNamespace:
		return "NAMESPACE"
	case StatusBadVersion:
		return "BAD_VERSION"
	case StatusUnknownTable:
		return "UNKNOWN_TABLE"
	case StatusBusy:
		return "BUSY"
	case StatusBadRequest:
		return "BAD_REQUEST"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Protocol decode errors.
var (
	ErrShortFrame = errors.New("server: frame shorter than fixed size")
	ErrBadOpCode  = errors.New("server: unknown opcode")
)

// Request is one decoded request frame.
type Request struct {
	Op    OpCode
	Key   uint64
	Value uint64
}

// Response is one decoded response frame.
type Response struct {
	Status Status
	Result uint64
}

// AppendRequest appends the 17-byte encoding of r to dst.
func AppendRequest(dst []byte, r Request) []byte {
	var b [ReqSize]byte
	b[0] = byte(r.Op)
	binary.LittleEndian.PutUint64(b[1:9], r.Key)
	binary.LittleEndian.PutUint64(b[9:17], r.Value)
	return append(dst, b[:]...)
}

// DecodeRequest decodes the request frame at the start of b.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < ReqSize {
		return Request{}, ErrShortFrame
	}
	op := OpCode(b[0])
	if op >= opCodeEnd {
		return Request{}, fmt.Errorf("%w: %d", ErrBadOpCode, b[0])
	}
	return Request{
		Op:    op,
		Key:   binary.LittleEndian.Uint64(b[1:9]),
		Value: binary.LittleEndian.Uint64(b[9:17]),
	}, nil
}

// AppendResponse appends the 9-byte encoding of r to dst.
func AppendResponse(dst []byte, r Response) []byte {
	var b [RespSize]byte
	b[0] = byte(r.Status)
	binary.LittleEndian.PutUint64(b[1:9], r.Result)
	return append(dst, b[:]...)
}

// DecodeResponse decodes the response frame at the start of b.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) < RespSize {
		return Response{}, ErrShortFrame
	}
	return Response{
		Status: Status(b[0]),
		Result: binary.LittleEndian.Uint64(b[1:9]),
	}, nil
}
