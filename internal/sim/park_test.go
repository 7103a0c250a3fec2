package sim

import (
	"testing"

	"mil/internal/cache"
	"mil/internal/memctrl"
	"mil/internal/sched"
	"mil/internal/workload"
)

// parkRig is the real cache↔memctrl boundary of a server run — memory
// system, port adapter, and hierarchy — driven by hand, so a test can
// script exactly what happens between a parked hierarchy's Tick and its
// NextWake.
type parkRig struct {
	memSys *memctrl.System
	port   *memPort
	hier   *cache.Hierarchy
	lpp    int64 // lines per DRAM page
}

func newParkRig(t *testing.T, pf cache.PrefetchConfig) *parkRig {
	t.Helper()
	b, err := workload.ByName("STRMATCH")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{System: Server, Scheme: "baseline", Benchmark: b}
	plat := platformFor(cfg.System)
	_, memSys, _, err := buildMemSystem(&cfg, plat)
	if err != nil {
		t.Fatal(err)
	}
	port := newMemPort(memSys, b)
	hcfg := plat.cache
	hcfg.Prefetch = pf
	hier, err := cache.NewHierarchy(hcfg, port)
	if err != nil {
		t.Fatal(err)
	}
	return &parkRig{memSys: memSys, port: port, hier: hier, lpp: int64(plat.dram.Geometry.LinesPerPage())}
}

// channel0 returns the first line of the n-th DRAM page on channel 0.
func (r *parkRig) channel0(t *testing.T, n int64) int64 {
	t.Helper()
	for line, seen := int64(0), int64(0); ; line += r.lpp {
		if r.memSys.Mapper().Map(line).Channel != 0 {
			continue
		}
		if seen == n {
			return line
		}
		seen++
	}
}

// fillReadQueue enqueues demand reads from outside the hierarchy until
// channel 0's read queue refuses one.
func (r *parkRig) fillReadQueue(t *testing.T) {
	t.Helper()
	for n := int64(100); ; n++ {
		if !r.port.ReadLine(r.channel0(t, n), true, 0, nil) {
			return
		}
	}
}

// park ticks the hierarchy and requires that it parked.
func (r *parkRig) park(t *testing.T, cpuNow int64) {
	t.Helper()
	r.hier.Tick()
	if w := r.hier.NextWake(cpuNow); w != sched.Never {
		t.Fatalf("hierarchy with only refused work wakes at %d, want Never", w)
	}
}

// TestParkedHierarchyWakesOnDequeue: a read leaving the controller's full
// queue moves the admission version, and the parked hierarchy's refused
// read is admitted on the Tick that follows.
func TestParkedHierarchyWakesOnDequeue(t *testing.T) {
	r := newParkRig(t, cache.PrefetchConfig{})
	r.fillReadQueue(t)
	line := r.channel0(t, 0)
	if res, _ := r.hier.Access(0, line*64, false, func() {}); res != cache.Miss {
		t.Fatalf("access: %v, want Miss", res)
	}
	r.park(t, 0)
	v := r.memSys.AdmissionVersion()
	d := int64(1)
	for ; r.memSys.AdmissionVersion() == v; d++ {
		if d > 10_000 {
			t.Fatal("no read left the queue")
		}
		if w := r.hier.NextWake(2*d - 1); w != sched.Never {
			t.Fatalf("woke at %d before any dequeue", w)
		}
		r.port.dramNow = d
		r.memSys.Tick(d)
	}
	cpuNow := 2 * (d - 1)
	if w := r.hier.NextWake(cpuNow); w != cpuNow+1 {
		t.Fatalf("wake %d after a dequeue, want %d", w, cpuNow+1)
	}
	r.hier.Tick()
	if r.port.inflight[line] == nil {
		t.Fatal("the refused read was not admitted after the dequeue")
	}
}

// TestParkedHierarchyWakesOnSameCyclePromote: the processor runs after the
// hierarchy in a landed cycle, and a demand access that promotes a queued
// prefetch frees a prefetch-share slot; the hierarchy must wake on the next
// cycle, where the steplock loop's retry succeeds.
func TestParkedHierarchyWakesOnSameCyclePromote(t *testing.T) {
	const degree = 20
	r := newParkRig(t, cache.PrefetchConfig{Streams: 1, Distance: 1, Degree: degree})
	base := r.channel0(t, 0)
	// Three unit-stride misses train the stream; the third prefetches
	// base+3 ... base+22, past the channel's prefetch share.
	for i := int64(0); i < 3; i++ {
		if res, _ := r.hier.Access(0, (base+i)*64, false, func() {}); res != cache.Miss {
			t.Fatalf("access %d: %v, want Miss", i, res)
		}
	}
	share := int64(memctrl.DefaultConfig(platformFor(Server).dram).ReadQueue / 4)
	firstRefused := base + 3 + share
	if r.port.inflight[firstRefused-1] == nil || r.port.inflight[firstRefused] != nil {
		t.Fatalf("setup: prefetches up to line %d should be admitted, the rest refused", firstRefused-1)
	}
	r.park(t, 0)
	// Same cycle, after the hierarchy's Tick: a demand access catches up
	// with the oldest queued prefetch and promotes it.
	if res, _ := r.hier.Access(1, (base+3)*64, false, func() {}); res != cache.Miss {
		t.Fatalf("access to a prefetched line: %v, want a merged Miss", res)
	}
	if w := r.hier.NextWake(0); w != 1 {
		t.Fatalf("wake %d after a same-cycle promote, want 1", w)
	}
	r.hier.Tick()
	if r.port.inflight[firstRefused] == nil {
		t.Fatal("the refused prefetch was not admitted after the promote")
	}
}

// TestParkedHierarchyWakesOnWriteEnqueue: a write joining the write queue
// — as a fill's writeback of an evicted dirty line does from inside the
// controller tick — moves the admission version, because a refused read
// of that line is now served by forwarding.
func TestParkedHierarchyWakesOnWriteEnqueue(t *testing.T) {
	r := newParkRig(t, cache.PrefetchConfig{})
	r.fillReadQueue(t)
	line := r.channel0(t, 0)
	if res, _ := r.hier.Access(0, line*64, false, func() {}); res != cache.Miss {
		t.Fatalf("access: %v, want Miss", res)
	}
	r.park(t, 0)
	if !r.port.WriteLine(line, 0) {
		t.Fatal("writeback refused")
	}
	if w := r.hier.NextWake(0); w != 1 {
		t.Fatalf("wake %d after a write enqueue, want 1", w)
	}
	ctrl := r.memSys.Controller(0)
	forwards := ctrl.Stats().Forwards
	r.hier.Tick()
	if ctrl.Stats().Forwards != forwards+1 {
		t.Fatal("the refused read was not forwarded from the queued write")
	}
}
