//go:build !race

package cpuops

func raceRelease(*[2]uint64) {}
