//go:build !linux

package cpuops

import "unsafe"

// AdviseHugePages is a no-op off Linux: transparent huge pages and
// madvise(2) advice are Linux's.
func AdviseHugePages(p unsafe.Pointer, n uintptr) {}
