package server

import (
	"errors"
	"fmt"

	core "repro/internal/core"
)

// Exported sentinel errors. Wire statuses that correspond to a table-level
// condition map back onto the core sentinels (core.ErrExists, core.ErrFull,
// ...) re-exported by the top-level dlht package, so errors.Is-based
// handling works identically against local and remote backends; statuses
// that only exist on the wire get their own sentinels here.
var (
	// ErrBusy: the server was out of connection handles and refused the
	// connection (StatusBusy).
	ErrBusy = errors.New("server: busy — out of connection handles")
	// ErrBadRequest: the server reported a malformed frame and closed the
	// connection (StatusBadRequest).
	ErrBadRequest = errors.New("server: bad request")
	// ErrUnknownTable: the handshake named a table the server does not
	// host (StatusUnknownTable).
	ErrUnknownTable = errors.New("server: unknown table")
	// ErrBadVersion: the server does not speak the requested protocol
	// version (StatusBadVersion).
	ErrBadVersion = errors.New("server: unsupported protocol version")
	// ErrBadFrame flags locally detected frame-construction and decode
	// violations (oversized keys/values, value on a value-less opcode).
	ErrBadFrame = errors.New("server: malformed frame")
	// ErrFeature: the operation needs a negotiated feature the connection
	// does not have (e.g. KV frames without FeatureKV granted).
	ErrFeature = errors.New("server: feature not negotiated on this connection")
)

// Err maps a wire status onto its sentinel error: nil for the two
// non-error statuses (StatusOK and StatusNotFound — a miss is not an
// error), the matching core sentinel where one exists, and the server
// sentinels above for the transport-only statuses.
func (s Status) Err() error {
	switch s {
	case StatusOK, StatusNotFound:
		return nil
	case StatusExists:
		return core.ErrExists
	case StatusShadow:
		return core.ErrShadow
	case StatusFull:
		return core.ErrFull
	case StatusReservedKey:
		return core.ErrReservedKey
	case StatusWrongMode:
		return core.ErrWrongMode
	case StatusValueSize:
		return core.ErrValueSize
	case StatusNamespace:
		return core.ErrNamespace
	case StatusBadVersion:
		return ErrBadVersion
	case StatusUnknownTable:
		return ErrUnknownTable
	case StatusBusy:
		return ErrBusy
	case StatusBadRequest:
		return ErrBadRequest
	}
	return fmt.Errorf("server: unexpected status %v", s)
}

// errToStatus is the server-side inverse of Status.Err for the table-level
// sentinels the KV execution path can see. This is a cold path (failures
// only), so errors.Is is fine here where opToResp uses direct comparison.
func errToStatus(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, core.ErrExists):
		return StatusExists
	case errors.Is(err, core.ErrShadow):
		return StatusShadow
	case errors.Is(err, core.ErrFull):
		return StatusFull
	case errors.Is(err, core.ErrReservedKey):
		return StatusReservedKey
	case errors.Is(err, core.ErrWrongMode):
		return StatusWrongMode
	case errors.Is(err, core.ErrValueSize):
		return StatusValueSize
	case errors.Is(err, core.ErrNamespace):
		return StatusNamespace
	}
	return StatusBadRequest
}
