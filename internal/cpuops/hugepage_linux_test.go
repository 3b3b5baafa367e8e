package cpuops

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// skipWithoutTHP skips when the kernel has no transparent huge pages or
// runs them in "never" mode, where the advice is ignored by design.
func skipWithoutTHP(t *testing.T) {
	t.Helper()
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil {
		t.Skipf("no transparent huge pages: %v", err)
	}
	if strings.Contains(string(mode), "[never]") {
		t.Skip("transparent huge pages are off ([never])")
	}
}

// thpEligible returns the THPeligible field of the /proc/self/smaps entry
// of the VMA holding addr.
func thpEligible(t *testing.T, addr uintptr) string {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		head, _, _ := strings.Cut(line, " ")
		if lo, hi, ok := strings.Cut(head, "-"); ok {
			a, errA := strconv.ParseUint(lo, 16, 64)
			b, errB := strconv.ParseUint(hi, 16, 64)
			if errA == nil && errB == nil {
				in = uint64(addr) >= a && uint64(addr) < b
				continue
			}
		}
		if v, ok := strings.CutPrefix(line, "THPeligible:"); ok && in {
			return strings.TrimSpace(v)
		}
	}
	t.Fatalf("no smaps entry with THPeligible holds %#x", addr)
	return ""
}

// An index-sized array lies in a VMA the kernel may back with huge pages.
func TestAlignedUint64sHugePageEligible(t *testing.T) {
	skipWithoutTHP(t)
	s := AlignedUint64s(4<<20/8, 64)
	page := (uintptr(unsafe.Pointer(&s[0])) + hugePageSize - 1) &^ (hugePageSize - 1)
	if got := thpEligible(t, page); got != "1" {
		t.Fatalf("THPeligible = %s for the 2 MiB page at %#x, want 1", got, page)
	}
	runtime.KeepAlive(s)
}

// The DONTNEED over a recycled array's interior must leave it zeroed: dirty
// an array, drop it, collect, and every word of the next one reads zero.
func TestAlignedUint64sRecycledReadsZero(t *testing.T) {
	for round := 0; round < 3; round++ {
		checkZeroThenDirty(t, round)
		runtime.GC()
	}
}

func checkZeroThenDirty(t *testing.T, round int) {
	s := AlignedUint64s(8<<20/8, 64)
	for i, w := range s {
		if w != 0 {
			t.Fatalf("round %d: word %d = %#x, want 0", round, i, w)
		}
		s[i] = ^uint64(i)
	}
}
