// Fixture for the ackgate pass: the PR 6 / PR 8 bufio auto-flush
// hazard. Marked reply writers must gate socket-bound bytes behind a
// covering sync before any bufio/net sink.
package ackgate

import (
	"bufio"
	"net"
)

type conn struct {
	c  net.Conn
	bw *bufio.Writer
}

func (cn *conn) syncPending() {}

// writeGood gates before the sink.
//
//dlht:ackgated
func (cn *conn) writeGood(msg string) {
	cn.syncPending()
	cn.bw.WriteString(msg)
}

// writeBad is the historical bug: bufio may auto-flush unsynced bytes
// mid-Write, and the gate only opens afterwards.
//
//dlht:ackgated
func (cn *conn) writeBad(msg string) {
	cn.bw.WriteString(msg) // want `may push unsynced bytes`
	cn.syncPending()
}

//dlht:ackgated
func (cn *conn) flushBad() {
	cn.bw.Flush() // want `may push unsynced bytes`
}

//dlht:ackgated
func (cn *conn) rawBad(b []byte) {
	cn.c.Write(b) // want `may push unsynced bytes`
}

// closureGood: a gate inside a nested literal still precedes the sink.
//
//dlht:ackgated
func (cn *conn) closureGood(b []byte) {
	sync := func() { cn.syncPending() }
	sync()
	cn.bw.Write(b)
}

// unmarked functions are out of scope even without a gate.
func (cn *conn) unmarked(msg string) {
	cn.bw.WriteString(msg)
}

// suppressed shows the dlht:ok escape hatch.
//
//dlht:ackgated
func (cn *conn) suppressed(msg string) {
	cn.bw.WriteString(msg) // dlht:ok:ackgate — fixture: justified suppression
}
