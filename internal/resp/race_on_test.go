//go:build race

package resp_test

// raceEnabled: the race detector's instrumentation allocates where the
// plain build does not, so allocation-count assertions skip under it.
const raceEnabled = true
