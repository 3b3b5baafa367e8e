// Package resp is the RESP2 front-end: a bounded, allocation-averse
// reader/writer for the Redis serialization protocol and a command layer
// serving an Allocator-mode DLHT table, so redis-cli, redis-benchmark and
// every Redis client library can drive the store unmodified. It is a
// codec: a connection decodes commands into operations of the
// per-connection engine (internal/engine) the binary protocol runs on too,
// and encodes their replies; the pipelines, the deadline check, the epoch
// and the idle step are the engine's.
//
// The wire surface is RESP2: commands arrive as arrays of bulk strings
// (*N, then N $len-framed arguments) or as inline space-separated lines;
// replies are simple strings (+), errors (-), integers (:), bulk strings
// ($) and arrays (*). Sizes are bounded to the existing wire limits — a
// key at most 64 KiB, a bulk argument at most 16 MiB (the v2 protocol's
// MaxKVValue), an array at most MaxArgs arguments — and a frame
// announcing more is a protocol error, never an allocation.
package resp

import (
	"errors"
	"io"
	"strconv"
)

//dlht:hotpath

// Protocol bounds. MaxBulk matches the v2 protocol's 16 MiB value cap;
// MaxKeyLen the v2 key cap; MaxArgs bounds one command's argument count
// (an MSET of ~32k pairs); MaxInline bounds an inline command line.
const (
	MaxBulk   = 16 << 20
	MaxKeyLen = 64<<10 - 1
	MaxArgs   = 1 << 16
	MaxInline = 64 << 10
)

// ErrProtocol reports bytes that can never parse as RESP2. The connection
// is answered with an -ERR and closed: byte alignment is no longer
// trusted, exactly like Redis.
var ErrProtocol = errors.New("resp: protocol error")

// protoError wraps ErrProtocol with detail without fmt (these are error
// paths of a hot file; fmt would pull boxing and reflection into it).
// errors.Is(err, ErrProtocol) matches, like the fmt.Errorf("%w") it
// replaces.
type protoError struct{ detail string }

func (e *protoError) Error() string { return ErrProtocol.Error() + ": " + e.detail }
func (e *protoError) Unwrap() error { return ErrProtocol }

func protoErrorf(detail string) error { return &protoError{detail: detail} }

// Reader decodes RESP2 commands from a stream through its own buffer, so
// it controls exactly when a read may block: OnFill, if set, runs before
// every potentially-blocking fill — the serve loop's hook for the engine's
// idle step.
type Reader struct {
	src    io.Reader
	buf    []byte
	r, w   int
	OnFill func()
}

// NewReader wraps src with a read buffer of the given size (minimum 4 KiB).
func NewReader(src io.Reader, size int) *Reader {
	if size < 4<<10 {
		size = 4 << 10
	}
	return &Reader{src: src, buf: make([]byte, size)}
}

// fill reads more bytes, compacting first. Calls OnFill before blocking.
func (r *Reader) fill() error {
	if r.r > 0 {
		copy(r.buf, r.buf[r.r:r.w])
		r.w -= r.r
		r.r = 0
	}
	if r.w == len(r.buf) {
		// A line longer than the whole buffer (huge inline command or
		// absurd length digits) can never parse.
		return protoErrorf("line exceeds " + strconv.Itoa(len(r.buf)) + " bytes")
	}
	if r.OnFill != nil {
		r.OnFill()
	}
	n, err := r.src.Read(r.buf[r.w:])
	r.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// readLine returns the next CRLF- (or bare LF-) terminated line without
// its terminator. The slice aliases the read buffer and is valid until
// the next Reader call.
func (r *Reader) readLine(max int) ([]byte, error) {
	for {
		for i := r.r; i < r.w; i++ {
			if r.buf[i] == '\n' {
				line := r.buf[r.r:i]
				r.r = i + 1
				if n := len(line); n > 0 && line[n-1] == '\r' {
					line = line[:n-1]
				}
				if len(line) > max {
					return nil, protoErrorf("line of " + strconv.Itoa(len(line)) + " bytes exceeds " + strconv.Itoa(max))
				}
				return line, nil
			}
		}
		if r.w-r.r > max {
			return nil, protoErrorf("unterminated line exceeds " + strconv.Itoa(max) + " bytes")
		}
		if err := r.fill(); err != nil {
			return nil, err
		}
	}
}

// readFull copies n payload bytes into dst, then consumes the trailing
// CRLF.
func (r *Reader) readFull(dst []byte) error {
	n := copy(dst, r.buf[r.r:r.w])
	r.r += n
	for n < len(dst) {
		if err := r.fill(); err != nil {
			return err
		}
		c := copy(dst[n:], r.buf[r.r:r.w])
		r.r += c
		n += c
	}
	// Trailing terminator: strict CRLF, or LF for sloppy peers.
	b, err := r.readByte()
	if err != nil {
		return err
	}
	if b == '\r' {
		if b, err = r.readByte(); err != nil {
			return err
		}
	}
	if b != '\n' {
		return protoErrorf("bulk string not CRLF-terminated")
	}
	return nil
}

func (r *Reader) readByte() (byte, error) {
	for r.r == r.w {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	b := r.buf[r.r]
	r.r++
	return b, nil
}

// parseInt parses a decimal integer (with optional sign) strictly; RESP
// length headers and INCR arguments share it.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	switch b[0] {
	case '-':
		neg, i = true, 1
	case '+':
		i = 1
	}
	if i == len(b) || len(b)-i > 19 {
		return 0, false
	}
	var n int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		nn := n*10 + int64(d)
		if nn < n {
			return 0, false
		}
		n = nn
	}
	if neg {
		n = -n
	}
	return n, true
}

// Command is one decoded client command. Args alias Raw, which is reused
// across ReadCommand calls — a caller keeping an argument beyond the next
// read must copy it.
type Command struct {
	Args [][]byte
	Raw  []byte
}

// ReadCommand decodes the next command — a *N array of bulk strings, or
// an inline space-separated line — into c. It never panics on hostile
// input: anything unparseable is ErrProtocol (close the connection),
// anything else an I/O error. A command with zero arguments (empty inline
// line) returns with c.Args empty; callers skip it, like Redis.
func (r *Reader) ReadCommand(c *Command) error {
	c.Args = c.Args[:0]
	c.Raw = c.Raw[:0]
	line, err := r.readLine(MaxInline)
	if err != nil {
		return err
	}
	if len(line) == 0 {
		return nil
	}
	if line[0] != '*' {
		// Inline command: split on spaces and tabs.
		c.Raw = append(c.Raw, line...)
		start := -1
		for i := 0; i <= len(c.Raw); i++ {
			if i < len(c.Raw) && c.Raw[i] != ' ' && c.Raw[i] != '\t' {
				if start < 0 {
					start = i
				}
				continue
			}
			if start >= 0 {
				c.Args = append(c.Args, c.Raw[start:i])
				start = -1
			}
		}
		return nil
	}
	n, ok := parseInt(line[1:])
	if !ok || n < 0 || n > MaxArgs {
		return protoErrorf("invalid multibulk length")
	}
	offs := make([]int, 0, 8)
	for i := int64(0); i < n; i++ {
		hdr, err := r.readLine(64)
		if err != nil {
			return err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return protoErrorf("expected bulk string")
		}
		blen, ok := parseInt(hdr[1:])
		if !ok || blen < 0 || blen > MaxBulk {
			return protoErrorf("invalid bulk length")
		}
		off := len(c.Raw)
		c.Raw = append(c.Raw, make([]byte, blen)...)
		if err := r.readFull(c.Raw[off:]); err != nil {
			return err
		}
		offs = append(offs, off)
	}
	// Args are sliced only after Raw stops growing: append may have
	// reallocated the backing array between bulks.
	for i, off := range offs {
		end := len(c.Raw)
		if i+1 < len(offs) {
			end = offs[i+1]
		}
		c.Args = append(c.Args, c.Raw[off:end])
	}
	return nil
}
