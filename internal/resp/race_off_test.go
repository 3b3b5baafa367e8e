//go:build !race

package resp_test

const raceEnabled = false
