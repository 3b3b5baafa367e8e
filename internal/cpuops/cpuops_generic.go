//go:build !amd64 || purego

package cpuops

import "unsafe"

const hasAsm = false

// cas128 is never called on this build; CompareAndSwap128 routes to the
// striped-lock fallback at compile time.
func cas128(p *[2]uint64, old0, old1, new0, new1 uint64) bool {
	panic("cpuops: cas128 asm not available on this platform")
}

// prefetch is a no-op on this build.
func prefetch(p unsafe.Pointer) {}

// prefetchRange is a no-op on this build.
func prefetchRange(p unsafe.Pointer, n uintptr) int { return 0 }
