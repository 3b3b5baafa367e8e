package server

import (
	"errors"
	"io"
	"net"
	"os"
	"syscall"
	"time"

	core "repro/internal/core"
)

// IsRetryable classifies an error surfaced by the client (or by a Store
// completion) as transient — worth retrying the operation, redialing the
// connection, or failing over to a replica — versus terminal.
//
// Retryable: transport failures of every shape (connection loss, resets,
// refused dials, timeouts and expired deadlines, EOF mid-stream) and
// ErrBusy (the server was momentarily out of connection handles — the
// canonical back-off-and-retry signal).
//
// Terminal: every table-level outcome and protocol refusal — ErrExists,
// ErrFull, ErrWrongMode, ErrValueSize, ErrNamespace, ErrReservedKey,
// ErrShadow, ErrBadRequest, ErrUnknownTable, ErrBadVersion, ErrBadFrame,
// ErrFeature — retrying those replays the same answer (or worse, a
// non-idempotent side effect). Unknown error shapes are conservatively
// terminal: retrying an unclassified failure risks duplicating a write.
//
// nil is not retryable.
func IsRetryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrBusy) || errors.Is(err, ErrRetryable) {
		return true
	}
	// Terminal sentinels first: a wrapped table-level refusal stays
	// terminal even if some transport type is also in the chain.
	for _, terminal := range []error{
		ErrBadRequest, ErrUnknownTable, ErrBadVersion, ErrBadFrame, ErrFeature,
		core.ErrExists, core.ErrShadow, core.ErrFull, core.ErrReservedKey,
		core.ErrWrongMode, core.ErrValueSize, core.ErrNamespace,
		core.ErrTooManyHandles,
	} {
		if errors.Is(err, terminal) {
			return false
		}
	}
	switch {
	case errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe),
		errors.Is(err, os.ErrDeadlineExceeded),
		errors.Is(err, net.ErrClosed):
		return true
	case errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, syscall.ETIMEDOUT),
		errors.Is(err, syscall.EHOSTUNREACH),
		errors.Is(err, syscall.ENETUNREACH):
		return true
	}
	// Any other net.Error (DNS failures, dial timeouts wrapped by the
	// runtime, ...) is transport-shaped.
	var ne net.Error
	return errors.As(err, &ne)
}

// ErrRetryable marks an error as transient for IsRetryable regardless of
// its underlying shape: wrap with fmt.Errorf("%w: ...", ErrRetryable)
// when a failure is known-transient but carries no transport type in its
// chain (a user OpenShard callback failing, say).
var ErrRetryable = errors.New("retryable")

// RetryPolicy bounds the client's transparent redial-and-retry loop:
// capped exponential backoff with deterministic-seedable jitter. The zero
// value disables retries entirely (errors surface exactly as before), so
// existing callers are unaffected; set Max > 0 to opt in.
type RetryPolicy struct {
	// Max is the retry budget: how many additional attempts one
	// synchronous operation may make after its first failure. It also
	// gates transparent redial — 0 disables both.
	Max int
	// BaseDelay is the first backoff step (default 2ms). Attempt n sleeps
	// a jittered duration in [d/2, d) where d = min(BaseDelay<<n,
	// MaxDelay).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (default 250ms).
	MaxDelay time.Duration
	// DialTimeout bounds each redial attempt (default 1s), so a
	// blackholed SYN cannot wedge a retry loop for minutes.
	DialTimeout time.Duration
	// Seed selects the jitter sequence; 0 derives one from the clock.
	// Tests pin it for reproducible schedules.
	Seed uint64
}

// DefaultRetry is a sensible client policy: 3 retries, 2ms→250ms backoff.
var DefaultRetry = RetryPolicy{Max: 3}

// norm fills in the defaulted fields.
func (p RetryPolicy) norm() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 2 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	if p.DialTimeout <= 0 {
		p.DialTimeout = time.Second
	}
	return p
}

// Backoff returns the jittered delay for retry attempt n (0-based),
// advancing the caller's xorshift state. Defaulted fields are filled in,
// and a zero state starts from Seed, so `var rng uint64` is a valid one.
func (p RetryPolicy) Backoff(n int, rng *uint64) time.Duration {
	p = p.norm()
	d := p.BaseDelay
	for i := 0; i < n && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	x := *rng
	if x == 0 {
		x = p.Seed | 1
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	// Jitter over [d/2, d): decorrelates a fleet of clients retrying the
	// same dead shard without ever collapsing the delay to ~0.
	return d/2 + time.Duration(x%uint64(d/2+1))
}
