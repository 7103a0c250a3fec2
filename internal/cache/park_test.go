package cache

import (
	"testing"

	"mil/internal/sched"
	"mil/internal/snap"
)

// parkedOnRead returns a hierarchy whose only pending work is one fill
// retry the port refuses, after the Tick that parked it.
func parkedOnRead(t *testing.T, cfg Config) (*Hierarchy, *fakePort) {
	t.Helper()
	h, port := newHierarchy(t, cfg)
	port.rejectRd = true
	if res, _ := h.AccessTagged(0, 0x0, false, 0, func() {}); res != Miss {
		t.Fatalf("access result %v, want Miss", res)
	}
	h.Tick()
	if w := h.NextWake(10); w != sched.Never {
		t.Fatalf("parked hierarchy wakes at %d, want Never", w)
	}
	return h, port
}

// TestParkedHierarchySleepsUntilAdmissionMoves: a Tick that only collected
// rejections parks the hierarchy until the port's admission version moves.
func TestParkedHierarchySleepsUntilAdmissionMoves(t *testing.T) {
	h, port := parkedOnRead(t, smallConfig())
	// More refused work at the same version keeps it parked: the new
	// retry was refused against the very state the parked ones were.
	if res, _ := h.Access(1, 16*64, false, func() {}); res != Miss {
		t.Fatalf("access result %v, want Miss", res)
	}
	if w := h.NextWake(10); w != sched.Never {
		t.Fatalf("a refused append unparked the hierarchy (wake %d)", w)
	}
	port.version++
	if w := h.NextWake(10); w != 11 {
		t.Fatalf("wake %d after the admission version moved, want 11", w)
	}
	port.rejectRd = false
	h.Tick()
	if len(port.reads) != 2 {
		t.Fatalf("reads %v after the retry Tick, want both lines", port.reads)
	}
	if w := h.NextWake(11); w != 12 {
		t.Fatalf("wake %d after an acting Tick, want 12", w)
	}
	h.Tick()
	if w := h.NextWake(12); w != sched.Never {
		t.Fatalf("wake %d with empty queues, want Never", w)
	}
}

// TestParkedHierarchyUnparksOnOwnChanges covers the changes that alter a
// parked hierarchy's next Tick without moving the port's version.
func TestParkedHierarchyUnparksOnOwnChanges(t *testing.T) {
	t.Run("fill", func(t *testing.T) {
		h, port := newHierarchy(t, smallConfig())
		h.Access(0, 0x0, false, func() {}) // issued
		port.rejectRd = true
		h.Access(1, 16*64, false, func() {}) // refused
		h.Tick()
		if w := h.NextWake(10); w != sched.Never {
			t.Fatalf("wake %d, want Never", w)
		}
		port.complete(0)
		if w := h.NextWake(10); w != 11 {
			t.Fatalf("wake %d after a fill, want 11", w)
		}
	})
	t.Run("promoted unissued prefetch", func(t *testing.T) {
		cfg := smallConfig()
		cfg.MSHRs = 8
		cfg.Prefetch = PrefetchConfig{Streams: 1, Distance: 1, Degree: 1}
		h, port := newHierarchy(t, cfg)
		port.rejectRd = true
		for line := int64(100); line < 103; line++ {
			h.Access(0, line*64, false, func() {}) // the third trains a prefetch of 103
		}
		h.Tick()
		if w := h.NextWake(10); w != sched.Never {
			t.Fatalf("wake %d, want Never", w)
		}
		if res, _ := h.Access(1, 103*64, false, func() {}); res != Miss {
			t.Fatalf("access to the prefetched line: %v, want a merged Miss", res)
		}
		if w := h.NextWake(10); w != 11 {
			t.Fatalf("wake %d after promoting an unissued prefetch, want 11", w)
		}
	})
	t.Run("cancelled writeback", func(t *testing.T) {
		h, port := newHierarchy(t, smallConfig())
		for _, line := range []int64{0, 16} { // two dirty lines of one L2 set
			h.Access(0, line*64, true, func() {})
			port.complete(line)
		}
		port.rejectWr = true
		for i := int64(2); i <= 5; i++ { // evict both
			h.Access(1, i*16*64, false, func() {})
			port.complete(i * 16)
		}
		if len(h.wbQueue) != 2 {
			t.Fatalf("setup: %d queued writebacks, want 2", len(h.wbQueue))
		}
		h.Tick()
		if w := h.NextWake(10); w != sched.Never {
			t.Fatalf("wake %d, want Never", w)
		}
		if res, _ := h.Access(0, 0x0, false, nil); res != Hit {
			t.Fatalf("access to the queued writeback's line: %v, want Hit", res)
		}
		if w := h.NextWake(10); w != 11 {
			t.Fatalf("wake %d after a writeback left the queue, want 11", w)
		}
	})
}

// TestRestoredHierarchyStartsUnparked: parked state is not serialized, so
// a restored hierarchy with queued work wakes on the next cycle.
func TestRestoredHierarchyStartsUnparked(t *testing.T) {
	h, port := parkedOnRead(t, smallConfig())
	var w snap.Writer
	h.Snapshot(&w)
	r, err := NewHierarchy(smallConfig(), port)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(snap.NewReader(w.Bytes()), func(int) func() { return func() {} }); err != nil {
		t.Fatal(err)
	}
	if wake := r.NextWake(10); wake != 11 {
		t.Fatalf("restored hierarchy wakes at %d, want 11", wake)
	}
}
