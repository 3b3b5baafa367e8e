package analyzers

// stripelock: lazy expiry is check-then-act — read a deadline, decide
// the key is dead, delete it. The check and the delete must happen
// under the same expiry stripe lock (expiry.Index.Lock(hash)), or a
// concurrent PUT between them resurrects the key and the delete kills
// live data (the race the RESP TTL layer fixed during PR 8 review).
//
// A pair's deadline is the metadata word of its block, and a reader
// gets it for free with the value, so the read path checks it with no
// lock held (expiry.Dead on a completion's Meta). That is the cheap
// pre-check and it is fine on its own: it may answer a miss. It may
// not delete. The delete it justifies goes through a locked operation
// of the state machine (KV.Expired), which reads the word again under
// the stripe.
//
// The pass fires per function scope (literals are scopes of their
// own): when a scope both consults a deadline (Dead / GetKVMeta /
// Expired) and deletes or replaces KV pairs (DeleteKV / DeleteKVHashed
// / UpsertKVHashed), every delete must sit inside the stripe-lock span
// — after a zero-argument .Lock() that follows the stripe acquisition
// Lock(hash), and before the final .Unlock() (a deferred Unlock covers
// the whole tail); the consultations may sit anywhere. Helpers named
// *Locked are exempt: their contract is "caller holds the stripe". Since every
// such compound now lives in the TTL'd-KV state machine (expiry.KV),
// the pass also holds the module to that contract: a call to one of its
// stripe-held helpers is a check and a delete in one, and must sit in
// the span too.

import (
	"go/ast"
	"go/token"
	"math"
	"strings"
)

var StripeLock = &Analyzer{
	Name: "stripelock",
	Doc:  "expiry deadline checks and the deletes they justify must share one stripe-lock span",
	Run:  runStripeLock,
}

var expiryChecks = map[string]bool{
	"Dead": true, "GetKVMeta": true, "Expired": true,
}

var kvDeletes = map[string]bool{
	"DeleteKV": true, "DeleteKVHashed": true, "UpsertKVHashed": true,
}

// stripeHeld are expiry.KV's helpers whose contract is "stripe lock
// held": each checks a deadline and deletes or replaces in one call.
var stripeHeld = map[string]bool{
	"readLocked": true, "storeLocked": true, "deleteLocked": true,
}

func runStripeLock(p *Pass) {
	for _, f := range p.Files {
		for _, s := range scopes(f) {
			if strings.HasSuffix(s.name, "Locked") {
				continue
			}
			checkStripeLock(p, s)
		}
	}
}

func checkStripeLock(p *Pass, s funcScope) {
	var (
		deletes     []*ast.CallExpr
		hasCheck    bool
		stripeAcq   token.Pos // first Lock(args...) — stripe selection
		muLock      token.Pos // first zero-arg .Lock() after acquisition
		lastUnlock  token.Pos // last zero-arg .Unlock()
		deferUnlock bool
	)
	walkScope(s, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			if calleeName(d.Call) == "Unlock" && len(d.Call.Args) == 0 {
				deferUnlock = true
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		switch {
		case stripeHeld[name]:
			hasCheck = true
			deletes = append(deletes, call)
		case expiryChecks[name]:
			hasCheck = true
		case kvDeletes[name]:
			deletes = append(deletes, call)
		case name == "Lock" && len(call.Args) > 0:
			if stripeAcq == token.NoPos {
				stripeAcq = call.Pos()
			}
		case name == "Lock" && len(call.Args) == 0:
			if muLock == token.NoPos && call.Pos() > stripeAcq && stripeAcq != token.NoPos {
				muLock = call.Pos()
			}
		case name == "Unlock" && len(call.Args) == 0:
			if call.Pos() > lastUnlock {
				lastUnlock = call.Pos()
			}
		}
		return true
	})
	if len(deletes) == 0 || !hasCheck {
		return
	}
	if muLock == token.NoPos {
		for _, d := range deletes {
			p.Reportf(d.Pos(),
				"%s deletes a checked-expired key without acquiring its expiry stripe lock (Lock(hash); mu.Lock())",
				calleeName(d))
		}
		return
	}
	end := lastUnlock
	if deferUnlock {
		end = math.MaxInt32 // deferred Unlock covers through return
	}
	for _, d := range deletes {
		if d.Pos() < muLock || d.Pos() > end {
			p.Reportf(d.Pos(),
				"%s runs outside the expiry stripe-lock span; the deadline check and delete must share one critical section",
				calleeName(d))
		}
	}
}
