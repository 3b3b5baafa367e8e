//go:build race

package core

// raceEnabled: the race detector reports the optimistic protocol's
// designed stale reads — a block read after its free, discarded when the
// bin header fails validation — so tests that free blocks under readers
// keep those reads out of the race build.
const raceEnabled = true
