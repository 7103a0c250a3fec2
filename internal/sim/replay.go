package sim

import (
	"fmt"

	"mil/internal/energy"
	"mil/internal/memctrl"
	"mil/internal/obs"
	"mil/internal/trace"
)

// replayRun executes a configuration by driving the memory system straight
// from a recorded trace (DESIGN.md §5.11). The cores, caches, and workload
// streams never run: their contribution to the Result — cycle counts,
// instruction totals, cache statistics, loop counters — is carried by the
// trace, and is identical for every configuration sharing the trace's
// front end (FrontEndKey). Only the backend is simulated: the controller,
// the DRAM devices, the codec/policy under test, and the phy with its
// fault injectors, all built by the same buildMemSystem a full run uses.
//
// The replay contract: for any configuration whose FrontEndKey equals the
// recording configuration's, the returned Result is byte-identical to what
// a full simulation of this configuration would produce. The driver does
// not take that on faith — every recorded acceptance and completion cycle
// is verified against the live controller, and any mismatch fails the run
// with a divergence error instead of returning silently wrong numbers.
func replayRun(cfg Config) (*Result, error) {
	tr := cfg.ReplayTrace
	plat := platformFor(cfg.System)
	policy, memSys, _, err := buildMemSystem(&cfg, plat)
	if err != nil {
		return nil, err
	}

	if cfg.Obs.Enabled() {
		if cfg.Obs.Trace != nil {
			cfg.Obs.Trace.SetTimebase(plat.dram.ClockNS / 2)
		}
		memSys.SetObs(cfg.Obs)
		if p, ok := policy.(interface{ SetObs(*obs.Obs) }); ok {
			p.SetObs(cfg.Obs)
		}
	}

	if err := driveReplay(memSys, tr); err != nil {
		return nil, fmt.Errorf("sim: replay of %s/%s/%s diverged: %w",
			cfg.System, cfg.Scheme, cfg.Benchmark.Name, err)
	}

	dramCycles := tr.DRAMCycles
	seconds := float64(dramCycles) * plat.dram.ClockNS * 1e-9
	memSys.FlushObs() // close the trailing idle-window run
	stats := memSys.Stats()

	breakdown, err := energy.DRAMEnergy(plat.power, plat.dram, plat.channels, stats, dramCycles)
	if err != nil {
		return nil, err
	}
	cpuJ := energy.CPUEnergy(plat.cpuPower, seconds, tr.Instructions)
	retryJ := energy.RetryEnergyJ(plat.power, stats)
	if cfg.Obs.Enabled() {
		o := cfg.Obs
		o.Counter("sim_runs_total").Inc()
		o.Counter("sim_cpu_cycles_total").Add(tr.CPUCycles)
		o.Counter("sim_dram_cycles_total").Add(dramCycles)
		o.Counter("loop_events_fired_total").Add(tr.EventsFired)
		o.Counter("loop_cycles_skipped_total").Add(tr.CyclesSkipped)
		energy.RecordMetrics(o, breakdown, cpuJ, retryJ)
		// Counters owned by the components replay skips, restored from the
		// trace so a replayed run's metrics CSV matches a full run's.
		o.Counter("cpu_thread_blocks_total").Add(tr.ThreadBlocks)
		o.Counter("cache_wb_backpressure_total").Add(tr.WBBackpressure)
		o.Counter("cache_fill_retry_total").Add(tr.FillRetries)
		o.Counter("cache_prefetch_dropped_total").Add(tr.Cache.PrefetchesDropped)
		o.Gauge("cache_wb_queue_peak").Max(tr.WBQueuePeak)
	}
	return &Result{
		System:       cfg.System,
		Scheme:       cfg.Scheme,
		Benchmark:    cfg.Benchmark.Name,
		CPUCycles:    tr.CPUCycles,
		DRAMCycles:   tr.DRAMCycles,
		Seconds:      seconds,
		Instructions: tr.Instructions,
		Mem:          stats,
		Cache:        tr.Cache,
		Loop:         LoopStats{EventsFired: tr.EventsFired, CyclesSkipped: tr.CyclesSkipped, Steplock: tr.Steplock},
		DRAM:         breakdown,
		CPUJ:         cpuJ,
		RetryJ:       retryJ,
	}, nil
}

// Divergence kinds, recorded cheaply during the drive; the error string is
// only formatted after the loop stops (diagnostics off the hot path).
const (
	divNone       = iota
	divCompletion // request completed at a cycle other than the recorded one
	divRejected   // enqueue rejected where the recording accepted
	divNoRead     // promote with no matching read in flight
)

// replayDriver holds the per-drive scratch the hot loop runs out of. All
// event-proportional state is allocated up front in a constant number of
// slices/maps, so the drive itself is allocation-free: the steady-state
// replay cost is the backend simulation (scheduling, codec, phy), not
// driver bookkeeping. TestReplayDriverZeroAllocPerEvent pins this.
type replayDriver struct {
	memSys *memctrl.System
	events []trace.Event
	reqs   []memctrl.Request // one preallocated request per event, indexed by event
	prom   []int32           // Promote events: target ReadAccept event index, or -1
	kids   []int32           // ReadAccept events: first child event index, or -1 (see trace.Event.Parent)

	// First divergence, recorded as raw facts; see err().
	divKind  int
	divEvent int   // index of the offending event
	divAt    int64 // observed completion cycle (divCompletion only)
}

// newReplayDriver builds the scratch for one drive. Promote targets are
// resolved here, in one forward pass, instead of with a live line→request
// map updated on every completion: a Promote at clock c targets the latest
// recorded read of its line still in flight at c (accepted at or before c,
// completing strictly after it) — exactly what the recorded run's promote
// saw.
func newReplayDriver(memSys *memctrl.System, tr *trace.Trace) *replayDriver {
	d := &replayDriver{
		memSys:   memSys,
		events:   tr.Events,
		reqs:     make([]memctrl.Request, len(tr.Events)),
		divEvent: -1,
	}
	nProm, nRead, hasKids := 0, 0, false
	for i := range d.events {
		switch d.events[i].Kind {
		case trace.Promote:
			nProm++
		case trace.ReadAccept:
			nRead++
		}
		hasKids = hasKids || d.events[i].Parent != 0
	}
	if hasKids {
		d.kids = make([]int32, len(d.events))
		for i := range d.kids {
			d.kids[i] = -1
		}
		for i := len(d.events) - 1; i >= 0; i-- {
			if p := d.events[i].Parent; p != 0 {
				d.kids[p-1] = int32(i)
			}
		}
	}
	if nProm > 0 {
		d.prom = make([]int32, len(d.events))
		lastRead := make(map[int64]int32, nRead)
		for i := range d.events {
			e := &d.events[i]
			switch e.Kind {
			case trace.ReadAccept:
				lastRead[e.Line] = int32(i)
			case trace.Promote:
				d.prom[i] = -1
				if j, ok := lastRead[e.Line]; ok && d.events[j].DoneAt > e.Clock {
					d.prom[i] = j
				}
			}
		}
	}
	memSys.SetDoneHook(d.onDone)
	return d
}

// onDone is the channel-wide completion hook: one integer compare per
// completion against the recorded cycle, with the event identity carried in
// Request.Tag (no per-request closure, no allocation). It then applies the
// events the recorded completion produced (the fill's writebacks), at the
// same point inside the controller tick where the recorded run enqueued
// them.
func (d *replayDriver) onDone(req *memctrl.Request, now int64) {
	if now != d.events[req.Tag].DoneAt {
		d.setDiv(divCompletion, req.Tag, now)
	}
	if d.kids == nil {
		return
	}
	for k := int(d.kids[req.Tag]); k >= 0 && k < len(d.events) && int(d.events[k].Parent) == req.Tag+1; k++ {
		d.enqueue(k)
	}
}

func (d *replayDriver) setDiv(kind, event int, at int64) {
	if d.divKind == divNone {
		d.divKind, d.divEvent, d.divAt = kind, event, at
	}
}

// apply enqueues event i from the main cursor, after its clock's tick.
// Events with a parent were already applied from the parent's completion.
func (d *replayDriver) apply(i int) {
	if d.events[i].Parent == 0 {
		d.enqueue(i)
	}
}

// enqueue offers event i to the memory system. The request is rebuilt in
// place in the preallocated slot (a full struct assignment, so no
// controller-side state from a previous use leaks through).
func (d *replayDriver) enqueue(i int) {
	e := &d.events[i]
	switch e.Kind {
	case trace.ReadAccept:
		req := &d.reqs[i]
		*req = memctrl.Request{Line: e.Line, Demand: e.Demand, Stream: e.Stream, Tag: i}
		if !d.memSys.Enqueue(req, e.Clock) {
			d.setDiv(divRejected, i, e.Clock)
		}
	case trace.WriteAccept:
		req := &d.reqs[i]
		*req = memctrl.Request{Line: e.Line, Write: true, Stream: e.Stream, Data: e.Data, Tag: i}
		if !d.memSys.Enqueue(req, e.Clock) {
			d.setDiv(divRejected, i, e.Clock)
		}
	case trace.Promote:
		if t := d.prom[i]; t >= 0 {
			d.memSys.Promote(&d.reqs[t])
		} else {
			d.setDiv(divNoRead, i, e.Clock)
		}
	}
}

// err formats the first divergence after the drive stops. Building the
// message here keeps the hot path to bare compares.
func (d *replayDriver) err() error {
	if d.divKind == divNone {
		return nil
	}
	e := &d.events[d.divEvent]
	kind := "read"
	if e.Kind == trace.WriteAccept {
		kind = "write"
	}
	switch d.divKind {
	case divCompletion:
		return fmt.Errorf("%s of line %d completed at cycle %d, recorded %d", kind, e.Line, d.divAt, e.DoneAt)
	case divRejected:
		return fmt.Errorf("%s of line %d rejected at cycle %d (accepted when recorded)", kind, e.Line, e.Clock)
	default:
		return fmt.Errorf("promote of line %d at cycle %d with no read in flight", e.Line, e.Clock)
	}
}

// driveReplay walks the memory system across the recorded timeline. The
// cadence rules mirror the main loops:
//
//   - Cycle 0 always fires (both loop modes land CPU cycle 0, which ticks
//     DRAM cycle 0), and SkipUntil can only account cycles *after* the
//     current one — so the driver starts with a real Tick(0).
//   - In a recorded run, every request accepted at DRAM cycle d was
//     enqueued after the controller covered d and before it covered d+1,
//     so events apply immediately after the driver lands on their clock —
//     except the events a read completion produced inside the tick (the
//     fill's writebacks, trace.Event.Parent), which the completion hook
//     applies at that same point of the replayed tick.
//   - Between event clocks the driver follows memSys.NextWake: refreshes,
//     power-down transitions, and scheduled issues come due between
//     requests and must tick exactly as in the recorded run. NextWake's
//     lower-bound contract guarantees no acting cycle is jumped over, and
//     extra no-op ticks are harmless — the PR-4 loop-equivalence property
//     (steplock ≡ event skipping, byte-identical) is precisely that the
//     statistics do not depend on which no-op cycles are ticked vs
//     bulk-accounted.
//
// Unlike the front-end loops, the driver never consults the scheduler's
// event clock or the cache/CPU wake bounds — the trace already proves the
// front end idle — and it skips the NextWake scan entirely whenever the
// cursor over the recorded acceptance clocks shows the next event due on
// the very next cycle (the common case inside a burst: the scan could
// never name an earlier cycle, since NextWake > now always).
//
// The total accounted cycles equal the trace's DRAMCycles, so the
// controller's Ticks/occupancy/Figure-5 statistics reconcile exactly with
// a full run's.
func driveReplay(memSys *memctrl.System, tr *trace.Trace) error {
	d := newReplayDriver(memSys, tr)
	events := d.events
	n := len(events)
	finalD := tr.DRAMCycles - 1

	i := 0
	memSys.Tick(0)
	last := int64(0)
	for ; i < n && events[i].Clock == 0; i++ {
		d.apply(i)
	}
	for last < finalD && d.divKind == divNone {
		var next int64
		if i < n && events[i].Clock == last+1 {
			// Cursor fast path: the next recorded acceptance is due on the
			// next cycle, so the wake scan is pointless.
			next = last + 1
		} else {
			next = memSys.NextWake()
			if i < n && events[i].Clock < next {
				next = events[i].Clock
			}
			if next <= last {
				next = last + 1
			}
			if next > finalD {
				// Nothing acts between here and the horizon; bulk-account the
				// tail so total accounted cycles equal the recorded DRAMCycles.
				memSys.SkipUntil(finalD)
				last = finalD
				break
			}
			if next > last+1 {
				memSys.SkipUntil(next - 1)
			}
		}
		memSys.Tick(next)
		last = next
		for ; i < n && events[i].Clock == next; i++ {
			d.apply(i)
		}
	}
	if err := d.err(); err != nil {
		return err
	}
	if i < n {
		return fmt.Errorf("%d events unapplied at the recorded %d-cycle horizon", n-i, tr.DRAMCycles)
	}
	if memSys.Pending() {
		return fmt.Errorf("requests still pending at the recorded %d-cycle horizon (the recorded run drained)", tr.DRAMCycles)
	}
	return nil
}
