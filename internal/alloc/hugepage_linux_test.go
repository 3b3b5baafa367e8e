package alloc

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// Huge-page advice over arena regions must not split the heap into a VMA
// per region: at 64K regions that passes vm.max_map_count and the
// runtime's own mmap fails. 512 regions may add a handful of maps lines.
func TestArenaRegionsKeepMapsCompact(t *testing.T) {
	mode, err := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	if err != nil || strings.Contains(string(mode), "[never]") {
		t.Skip("transparent huge pages unavailable or off")
	}
	mapsLines := func() int {
		b, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Skipf("no maps: %v", err)
		}
		return strings.Count(string(b), "\n")
	}
	a := NewArena()
	before := mapsLines()
	regions := make([][]byte, 512)
	for i := range regions {
		regions[i] = a.newRegion()
	}
	after := mapsLines()
	runtime.KeepAlive(regions)
	t.Logf("/proc/self/maps: %d lines before, %d after 512 regions", before, after)
	if after > before+8 {
		t.Fatalf("512 regions grew /proc/self/maps from %d to %d lines, want at most +8", before, after)
	}
}
