// Package resp is the RESP2 front-end: a bounded, non-blocking command
// parser and reply writers for the Redis serialization protocol, and a
// command layer serving an Allocator-mode DLHT table, so redis-cli,
// redis-benchmark and every Redis client library can drive the store
// unmodified. It is a codec: a connection's parser decodes commands in
// place, out of the read buffer of the per-connection engine
// (internal/engine) the binary protocol runs on too, into operations of
// that engine, and encodes their replies; the read loop, the pipelines,
// the deadline check, the epoch and the idle step are the engine's.
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
	"bytes"
	"errors"
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

// parser decodes RESP2 commands out of a connection's read buffer without
// blocking. A command split across reads is resumed where the last call
// stopped, so each byte is scanned once however the command arrives:
// rescanning from the command's start on every read would cost a
// many-argument command fed a byte at a time quadratic work.
type parser struct {
	args [][]byte // the command next last decoded; slices its buf
	offs []int    // start and end of each bulk decoded so far, from the command's start
	argc int      // bulks the pending multibulk announced
	at   int      // bytes of the pending command decoded; 0 until its first line is in
	scan int      // bytes of the pending command searched for the next LF
}

// line returns the line starting at buf[p.at:] without its CRLF (or bare
// LF) and the offset just past it; end is 0 while its LF is not buffered.
// A line longer than max can never parse.
func (p *parser) line(buf []byte, max int) (line []byte, end int, err error) {
	i := bytes.IndexByte(buf[p.scan:], '\n')
	if i < 0 {
		p.scan = len(buf)
		if len(buf)-p.at > max+1 {
			return nil, 0, protoErrorf("unterminated line exceeds " + strconv.Itoa(max) + " bytes")
		}
		return nil, 0, nil
	}
	end = p.scan + i + 1
	line = buf[p.at : end-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	if len(line) > max {
		return nil, 0, protoErrorf("line of " + strconv.Itoa(len(line)) + " bytes exceeds " + strconv.Itoa(max))
	}
	return line, end, nil
}

// next decodes the command buf begins with — a *N array of bulk strings,
// or an inline space-separated line — into p.args, which slice buf. With
// only part of a command buffered it consumes nothing and asks for more
// than len(buf); the next call must pass the same bytes and more. Anything
// unparseable is ErrProtocol. A command with zero arguments (an empty
// inline line) leaves p.args empty; callers skip it, like Redis.
func (p *parser) next(buf []byte) (used, need int, err error) {
	p.args = p.args[:0]
	if p.at == 0 {
		line, end, err := p.line(buf, MaxInline)
		if end == 0 {
			return 0, len(buf) + 1, err
		}
		if len(line) == 0 || line[0] != '*' {
			p.inline(line)
			p.scan = 0
			return end, 0, nil
		}
		n, ok := parseInt(line[1:])
		if !ok || n < 0 || n > MaxArgs {
			return 0, 0, protoErrorf("invalid multibulk length")
		}
		p.argc, p.at, p.scan, p.offs = int(n), end, end, p.offs[:0]
	}
	for len(p.offs) < 2*p.argc {
		hdr, end, err := p.line(buf, 64)
		if end == 0 {
			return 0, len(buf) + 1, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return 0, 0, protoErrorf("expected bulk string")
		}
		n, ok := parseInt(hdr[1:])
		if !ok || n < 0 || n > MaxBulk {
			return 0, 0, protoErrorf("invalid bulk length")
		}
		// The body, then a strict CRLF or, for sloppy peers, an LF. Until
		// it is all here the header is rescanned, once per bulk.
		stop := end + int(n)
		if len(buf) > stop && buf[stop] == '\r' {
			stop++
		}
		if len(buf) <= stop {
			p.scan = p.at
			return 0, stop + 1, nil
		}
		if buf[stop] != '\n' {
			return 0, 0, protoErrorf("bulk string not CRLF-terminated")
		}
		p.offs = append(p.offs, end, end+int(n))
		p.at, p.scan = stop+1, stop+1
	}
	for i := 0; i < len(p.offs); i += 2 {
		p.args = append(p.args, buf[p.offs[i]:p.offs[i+1]])
	}
	used, p.at, p.scan = p.at, 0, 0
	return used, 0, nil
}

// inline splits an inline command line on spaces and tabs into p.args.
func (p *parser) inline(line []byte) {
	start := -1
	for i := 0; i <= len(line); i++ {
		if i < len(line) && line[i] != ' ' && line[i] != '\t' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			p.args = append(p.args, line[start:i])
			start = -1
		}
	}
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
