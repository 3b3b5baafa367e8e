//go:build amd64 && !purego

package cpuops

import "unsafe"

const hasAsm = true

// cas128 is implemented in cpuops_amd64.s as LOCK CMPXCHG16B.
//
//go:noescape
func cas128(p *[2]uint64, old0, old1, new0, new1 uint64) bool

// prefetch is implemented in cpuops_amd64.s as PREFETCHT0.
//
//go:noescape
func prefetch(p unsafe.Pointer)

// prefetchRange is implemented in cpuops_amd64.s as one PREFETCHT0 per
// cache line of [p, p+n). It returns how many lines it prefetched.
//
//go:noescape
func prefetchRange(p unsafe.Pointer, n uintptr) int
