//go:build !unix

package dlht

// minorFaults reports no count where getrusage(2) does not exist.
func minorFaults() (uint64, bool) { return 0, false }
