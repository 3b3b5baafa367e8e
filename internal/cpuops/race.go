//go:build race

package cpuops

import (
	"runtime"
	"unsafe"
)

// raceRelease tells the race detector what LOCK CMPXCHG16B does: publish
// every write its caller made before it. The detector cannot see inside
// assembly, and readers load the two words with sync/atomic, which it
// models as acquires of their addresses; without this release an
// Allocator-mode Put, which fills a block and then publishes its reference
// with the CAS, reads to the detector as a race on the block. It runs
// before the CAS, so no reader — nor the resize transfer that moves the
// pair on — can load the new words ahead of it. A failed CAS gets the
// release too, which can only hide a race from the detector, never invent
// one.
func raceRelease(p *[2]uint64) {
	runtime.RaceReleaseMerge(unsafe.Pointer(&p[0]))
	runtime.RaceReleaseMerge(unsafe.Pointer(&p[1]))
}
