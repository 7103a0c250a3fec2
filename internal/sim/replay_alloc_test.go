package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"mil/internal/memctrl"
	"mil/internal/trace"
	"mil/internal/workload"
)

// allocProbeCfg is the backend configuration the allocation probe drives.
// Read-only traffic keeps the overlay memory from growing (writes insert
// into its map, a data-proportional cost shared with fresh simulation), so
// the only allocations left to observe are the replay driver's own.
func allocProbeCfg(t *testing.T) Config {
	t.Helper()
	b, err := workload.ByName("STRMATCH")
	if err != nil {
		t.Fatal(err)
	}
	return Config{System: Server, Scheme: "mil", Benchmark: b, MemOpsPerThread: 100, Seed: 1}
}

// recordReadTrace hand-records a read-only trace with nReads spaced demand
// reads. The recording walk lands on exactly the cycles driveReplay will
// land on (NextWake bounds clamped to the next planned enqueue clock), so
// the replayed controller sees an identical cadence and accepts/completes
// at the recorded cycles.
func recordReadTrace(t *testing.T, nReads int) *trace.Trace {
	t.Helper()
	cfg := allocProbeCfg(t)
	plat := platformFor(cfg.System)
	_, memSys, _, err := buildMemSystem(&cfg, plat)
	if err != nil {
		t.Fatal(err)
	}

	last := int64(-1)
	memSys.Tick(0)
	last = 0
	// land advances to cycle d with the same cadence driveReplay uses:
	// tick every NextWake bound at or before d, bulk-skip the gaps.
	land := func(d int64) {
		for last < d {
			next := memSys.NextWake()
			if next > d {
				next = d
			}
			if next <= last {
				next = last + 1
			}
			if next > last+1 {
				memSys.SkipUntil(next - 1)
			}
			memSys.Tick(next)
			last = next
		}
	}

	events := make([]trace.Event, 0, nReads)
	for k := 0; k < nReads; k++ {
		clock := last + 3
		land(clock)
		done := int64(-1)
		req := &memctrl.Request{Line: int64(k), Demand: true, OnDone: func(now int64) { done = now }}
		if !memSys.Enqueue(req, clock) {
			t.Fatalf("read %d rejected at cycle %d", k, clock)
		}
		for done < 0 {
			land(last + 1)
		}
		events = append(events, trace.Event{
			Kind: trace.ReadAccept, Clock: clock, Line: int64(k), Demand: true, DoneAt: done,
		})
	}
	return &trace.Trace{DRAMCycles: last + 2, Events: events}
}

// driveMallocs replays tr on a fresh backend and returns the number of
// heap allocations driveReplay performed.
func driveMallocs(t *testing.T, tr *trace.Trace) uint64 {
	t.Helper()
	cfg := allocProbeCfg(t)
	plat := platformFor(cfg.System)
	_, memSys, _, err := buildMemSystem(&cfg, plat)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rerr := driveReplay(memSys, tr)
	runtime.ReadMemStats(&after)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return after.Mallocs - before.Mallocs
}

// minDriveMallocs is driveMallocs' minimum over five drives. The malloc
// counter is process-wide, so a stray allocation elsewhere in the process
// (the runtime, a finishing parallel test) can only add to one drive's
// count; the minimum is the drive's own.
func minDriveMallocs(t *testing.T, tr *trace.Trace) uint64 {
	t.Helper()
	m := driveMallocs(t, tr)
	for i := 1; i < 5; i++ {
		m = min(m, driveMallocs(t, tr))
	}
	return m
}

// TestReplayDriverZeroAllocPerEvent pins the replay fast path's steady
// state at 0 allocs per event: doubling the event count must not change
// the number of heap allocations one drive performs. The per-drive setup
// (the request slot slice, the completion hook, first-use phy scratch
// growth) is a constant number of allocations however long the trace is;
// everything per-event runs out of preallocated scratch.
func TestReplayDriverZeroAllocPerEvent(t *testing.T) {
	trSmall := recordReadTrace(t, 64)
	trBig := recordReadTrace(t, 128)

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small := minDriveMallocs(t, trSmall)
	big := minDriveMallocs(t, trBig)
	if big != small {
		perEvent := float64(big-small) / float64(len(trBig.Events)-len(trSmall.Events))
		t.Fatalf("drive allocations scale with events: %d allocs for %d events vs %d for %d (%.2f allocs/event, want 0)",
			big, len(trBig.Events), small, len(trSmall.Events), perEvent)
	}
}
