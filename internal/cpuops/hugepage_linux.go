package cpuops

import (
	"runtime"
	"syscall"
	"unsafe"
)

// hugePageSize is the transparent huge page size on 4 KiB-page kernels.
const hugePageSize = 2 << 20

// AdviseHugePages asks the kernel to back the n bytes at p, a freshly
// allocated and zeroed Go heap object, with transparent 2 MiB pages. Spans
// that hold no whole 2 MiB page are left alone. The object stays an ordinary
// heap object: the GC owns its lifetime, and nothing is mapped or unmapped.
//
// MADV_HUGEPAGE covers the span rounded out to 2 MiB, so the advice of
// neighbouring objects meets and their VMAs merge back into one; advising
// the interior only splits a VMA per object and, at tens of thousands of
// arena regions, exhausts vm.max_map_count. MADV_DONTNEED drops the
// whole-page interior, which lies inside the zeroed object, so its contents
// stay zero while memory the runtime re-zeroed on 4 KiB pages refaults on
// huge ones; on memory fresh from the kernel it is a no-op. Addresses go to
// the syscall raw, since a slice over the rounded-out span would straddle
// other allocations. Errors are ignored: both calls are advice, and a kernel
// without THP, or in "never" mode, behaves as before.
func AdviseHugePages(p unsafe.Pointer, n uintptr) {
	start := uintptr(p)
	end := start + n
	lo := (start + hugePageSize - 1) &^ (hugePageSize - 1)
	hi := end &^ (hugePageSize - 1)
	if hi <= lo {
		return
	}
	outLo := start &^ (hugePageSize - 1)
	outHi := (end + hugePageSize - 1) &^ (hugePageSize - 1)
	syscall.Syscall(syscall.SYS_MADVISE, outLo, outHi-outLo, syscall.MADV_HUGEPAGE)
	syscall.Syscall(syscall.SYS_MADVISE, lo, hi-lo, syscall.MADV_DONTNEED)
	// The object must outlive the DONTNEED: freed and reused, its interior
	// would be someone else's memory.
	runtime.KeepAlive(p)
}
