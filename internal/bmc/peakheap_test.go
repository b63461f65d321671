package bmc

import (
	"context"
	"runtime"
	"testing"

	"emmver/internal/designs"
)

// Stats.PeakHeapMB is the live-heap high-water mark over the run, not a
// reading taken when the run ends: memory the run held at a depth boundary
// and released before the end still counts.
func TestPeakHeapIsHighWaterMark(t *testing.T) {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	r := Check(q.Netlist(), q.P1Index, BMC2(6))
	if r.Stats.PeakHeapMB <= 0 {
		t.Fatalf("PeakHeapMB = %v after a %d-depth run, want > 0", r.Stats.PeakHeapMB, r.Depth)
	}

	e := newEngine(context.Background(), q.Netlist(), q.P1Index, BMC2(6))
	const held = 32 << 20
	big := make([]byte, held)
	runtime.GC()
	e.sampleHeap() // a depth boundary while the run holds big
	high := e.peakLive
	runtime.KeepAlive(big)
	big = nil
	runtime.GC()
	end := heapLive()
	st := e.snapshotStats()
	if high < held {
		t.Fatalf("live sample %d while holding %d bytes", high, held)
	}
	if got := st.PeakHeapMB * (1 << 20); got < float64(high) || got < float64(end) {
		t.Fatalf("PeakHeapMB = %.0f bytes, below the boundary sample %d or the end sample %d", got, high, end)
	}
	if end >= high {
		t.Fatalf("setup: end-of-run live heap %d did not fall below the held peak %d", end, high)
	}
}
