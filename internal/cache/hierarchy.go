package cache

import (
	"fmt"

	"mil/internal/obs"
	"mil/internal/sched"
)

// Config describes the two-level hierarchy of Table 2.
type Config struct {
	Cores     int
	LineBytes int

	L1Size   int
	L1Ways   int
	L1HitLat int64 // CPU cycles

	L2Size   int
	L2Ways   int
	L2HitLat int64 // CPU cycles, on top of the L1 miss

	MSHRs    int // outstanding distinct line misses at the L2
	Prefetch PrefetchConfig
}

// ServerConfig returns the Niagara-like microserver hierarchy of Table 2.
func ServerConfig() Config {
	return Config{
		Cores: 8, LineBytes: 64,
		L1Size: 32 << 10, L1Ways: 4, L1HitLat: 2,
		L2Size: 4 << 20, L2Ways: 8, L2HitLat: 16,
		MSHRs:    64,
		Prefetch: PrefetchConfig{Streams: 128, Distance: 16, Degree: 4},
	}
}

// MobileConfig returns the Snapdragon-like mobile hierarchy of Table 2.
func MobileConfig() Config {
	return Config{
		Cores: 8, LineBytes: 64,
		L1Size: 32 << 10, L1Ways: 4, L1HitLat: 2,
		L2Size: 2 << 20, L2Ways: 8, L2HitLat: 8,
		MSHRs:    96,
		Prefetch: PrefetchConfig{Streams: 128, Distance: 8, Degree: 2},
	}
}

// MemPort is the hierarchy's view of the memory system. ReadLine/WriteLine
// return false when the controller queue is full; the hierarchy retries on
// Tick. done is invoked with the line address when the read's data has
// arrived, so callers can pass one long-lived callback instead of
// allocating a capturing closure per (re)issue. Promote upgrades an
// in-flight prefetch read to demand priority (a core is now blocked on
// it); it is a no-op for lines that are not in flight.
//
// AdmissionVersion must move whenever a request the port refused could
// now be accepted; while it stands still, a refused ReadLine or WriteLine
// stays refused (see Hierarchy.NextWake). A port that cannot tell may
// return a fresh value on every call.
type MemPort interface {
	ReadLine(line int64, demand bool, stream int, done func(line int64)) bool
	WriteLine(line int64, stream int) bool
	Promote(line int64)
	AdmissionVersion() uint64
}

// mshrEntry tracks one outstanding line fill.
type mshrEntry struct {
	issued  bool
	demand  bool
	stream  int
	waiters []waiter
}

// waiter is a core access blocked on a fill. tag identifies the done
// callback for snapshot/restore: callers that need their waiters to
// survive a checkpoint pass a stable tag (the CPU passes the hardware
// thread index) and re-provide the callback on restore; untagged waiters
// (tag < 0) are test-only and cannot be checkpointed mid-miss.
type waiter struct {
	core  int
	write bool
	tag   int
	done  func()
}

// AccessResult reports how an access resolved.
type AccessResult int

// Access outcomes.
const (
	// Hit: the access completed; the latency return value is valid.
	Hit AccessResult = iota
	// Miss: the access went to memory; done will be called on arrival.
	Miss
	// Retry: structural hazard (MSHRs full); retry next cycle.
	Retry
)

// Stats aggregates hierarchy counters.
type Stats struct {
	L1Hits, L1Misses  int64
	L2Hits, L2Misses  int64
	MSHRMerges        int64
	PrefetchHits      int64 // demand touches of prefetched L2 lines
	Writebacks        int64
	Upgrades          int64
	Interventions     int64
	PrefetchesIssued  int64
	PrefetchesDropped int64 // already present or pending
	BackInvalidations int64
}

// Hierarchy is the shared cache system for all cores.
type Hierarchy struct {
	cfg  Config
	port MemPort

	l1      []*Array
	l2      *Array
	sharers map[int64]uint16 // L1 bitmask per L2-resident line
	mshr    map[int64]*mshrEntry
	retryQ  []int64 // unissued fills, in allocation order (determinism)
	wbQueue []int64 // writebacks awaiting port acceptance
	pf      *Prefetcher
	fillFn  func(int64) // h.fill bound once, reused by every ReadLine

	// acted records whether the last Tick changed any state (drained a
	// writeback, issued a retry, or dropped a stale entry). A Tick that
	// only collected rejections leaves the hierarchy in a fixed point:
	// with the memory port's state frozen, every later Tick would be the
	// identical no-op, so the event core need not wake for it.
	acted bool
	// parked marks that fixed point: the last Tick only collected
	// rejections, at port admission version parkedAt, and nothing the
	// retries depend on has changed since. Not serialized: a restored
	// hierarchy starts unparked, and the landed cycle a checkpoint
	// resumes at re-parks it in its own Tick.
	parked   bool
	parkedAt uint64
	// mshrFreeVer counts fills, the only events that free an MSHR (see
	// MSHRFreeVersion). Not serialized: only its movement matters, and
	// the processor re-derives its parked versions on restore.
	mshrFreeVer uint64

	stats Stats

	// obs, when non-nil, carries the hierarchy's metric handles; nil (the
	// default) keeps every instrumented site on a single-branch path.
	obs *hierObs

	// Boundary backpressure counters for the trace record/replay layer
	// (DESIGN.md §5.11): always-on plain mirrors of the wbQueued/fillRetry/
	// wbPeak obs handles, so a recorded trace can reproduce a full run's
	// metrics CSV without the hierarchy present. Deliberately not part of
	// Stats (they measure the port boundary, not the caches) and not
	// serialized in snapshots (trace recording and resume are mutually
	// exclusive, so they never need to survive one).
	wbBackpressure int64
	fillRetries    int64
	wbQueuePeak    int64
}

// hierObs holds the hierarchy's pre-resolved observability handles.
type hierObs struct {
	wbQueued  *obs.Counter // writebacks deferred by port backpressure
	fillRetry *obs.Counter // fill issues rejected by the port
	pfDropped *obs.Counter // prefetches dropped (present, pending, or no MSHR)
	wbPeak    *obs.Gauge   // writeback-queue high-water mark
}

// SetObs attaches the observability layer. Call before the first access.
// Nil-safe: a disabled Obs leaves the hierarchy on its zero-cost path.
func (h *Hierarchy) SetObs(o *obs.Obs) {
	if !o.Enabled() {
		return
	}
	h.obs = &hierObs{
		wbQueued:  o.Counter("cache_wb_backpressure_total"),
		fillRetry: o.Counter("cache_fill_retry_total"),
		pfDropped: o.Counter("cache_prefetch_dropped_total"),
		wbPeak:    o.Gauge("cache_wb_queue_peak"),
	}
}

// BoundaryStats reports the port-boundary backpressure counters the trace
// recorder folds into a trace (see the field comments above).
func (h *Hierarchy) BoundaryStats() (wbBackpressure, fillRetries, wbQueuePeak int64) {
	return h.wbBackpressure, h.fillRetries, h.wbQueuePeak
}

// NewHierarchy builds the hierarchy over a memory port.
func NewHierarchy(cfg Config, port MemPort) (*Hierarchy, error) {
	if cfg.Cores <= 0 || cfg.Cores > 16 {
		return nil, fmt.Errorf("cache: cores = %d", cfg.Cores)
	}
	if cfg.MSHRs <= 0 {
		return nil, fmt.Errorf("cache: MSHRs = %d", cfg.MSHRs)
	}
	if port == nil {
		return nil, fmt.Errorf("cache: nil memory port")
	}
	h := &Hierarchy{
		cfg: cfg, port: port,
		sharers: make(map[int64]uint16),
		mshr:    make(map[int64]*mshrEntry),
		pf:      NewPrefetcher(cfg.Prefetch),
	}
	h.fillFn = h.fill // bound once; every ReadLine shares it
	for i := 0; i < cfg.Cores; i++ {
		l1, err := NewArray(cfg.L1Size, cfg.LineBytes, cfg.L1Ways)
		if err != nil {
			return nil, err
		}
		h.l1 = append(h.l1, l1)
	}
	var err error
	h.l2, err = NewArray(cfg.L2Size, cfg.LineBytes, cfg.L2Ways)
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Stats returns a snapshot of the counters.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	for _, l1 := range h.l1 {
		s.L1Hits += l1.Hits
		s.L1Misses += l1.Misses
	}
	s.L2Hits += h.l2.Hits
	s.L2Misses += h.l2.Misses
	if h.pf != nil {
		s.PrefetchesIssued = h.pf.Issued
	}
	return s
}

// Pending reports outstanding fills or writebacks.
func (h *Hierarchy) Pending() bool { return len(h.mshr) > 0 || len(h.wbQueue) > 0 }

// FillHandler returns the hierarchy's long-lived fill callback — the same
// function every ReadLine passes to the memory port. Snapshot restore uses
// it to re-link in-flight reads that were serialized without their
// (unserializable) callback closures.
func (h *Hierarchy) FillHandler() func(int64) { return h.fillFn }

// Access performs a load (write=false) or store (write=true) to a byte
// address from the given core. On Miss, done fires when the line arrives.
func (h *Hierarchy) Access(core int, addr int64, write bool, done func()) (AccessResult, int64) {
	return h.AccessTagged(core, addr, write, -1, done)
}

// AccessTagged is Access with a caller-chosen waiter tag (see waiter); use
// it when the done callback must survive a snapshot/restore cycle.
func (h *Hierarchy) AccessTagged(core int, addr int64, write bool, tag int, done func()) (AccessResult, int64) {
	line := addr / int64(h.cfg.LineBytes)
	l1 := h.l1[core]

	switch st := l1.Lookup(line); st {
	case Modified, Exclusive:
		if write {
			l1.SetState(line, Modified)
			l1.MarkDirty(line)
		}
		return Hit, h.cfg.L1HitLat
	case Shared:
		if !write {
			return Hit, h.cfg.L1HitLat
		}
		// Upgrade: invalidate the other sharers through the L2.
		h.stats.Upgrades++
		h.invalidateOthers(line, core)
		l1.SetState(line, Modified)
		l1.MarkDirty(line)
		return Hit, h.cfg.L1HitLat + h.cfg.L2HitLat
	}

	// L1 miss. A pending writeback of this line short-circuits to a hit.
	if h.cancelPendingWriteback(line) {
		h.l2.Insert(line, Shared, true)
	}

	if st := h.l2.Lookup(line); st != Invalid {
		lat := h.cfg.L1HitLat + h.cfg.L2HitLat
		if h.ownerHasModified(line, core) {
			h.stats.Interventions++
			lat += h.cfg.L2HitLat // owner writeback/downgrade round
		}
		// The first demand touch of a prefetched line keeps the stream
		// alive: without this, covered streams stop training and the
		// prefetcher stalls until misses resume.
		if h.pf != nil && h.l2.TakePrefetched(line) {
			h.stats.PrefetchHits++
			for _, pl := range h.pf.OnDemandMiss(line) {
				h.issuePrefetch(pl, core)
			}
		}
		h.fillL1(core, line, write)
		return Hit, lat
	}

	// L2 miss: allocate or merge into an MSHR.
	if e, ok := h.mshr[line]; ok {
		h.stats.MSHRMerges++
		e.waiters = append(e.waiters, waiter{core: core, write: write, tag: tag, done: done})
		if !e.demand {
			// A demand access caught up with a prefetch: promote the
			// in-flight request so the controller stops deprioritizing it.
			// An unissued fill now retries as demand, which the port may
			// admit where it refused the prefetch.
			e.demand = true
			e.stream = core
			h.port.Promote(line)
			if !e.issued {
				h.parked = false
			}
		}
		return Miss, 0
	}
	if len(h.mshr) >= h.cfg.MSHRs {
		return Retry, 0
	}
	e := &mshrEntry{demand: true, stream: core, waiters: []waiter{{core: core, write: write, tag: tag, done: done}}}
	h.mshr[line] = e
	e.issued = h.port.ReadLine(line, true, core, h.fillFn)
	if entry, ok := h.mshr[line]; ok && !entry.issued {
		h.queueFillRetry(line)
	}

	if h.pf != nil {
		for _, pl := range h.pf.OnDemandMiss(line) {
			h.issuePrefetch(pl, core)
		}
	}
	return Miss, 0
}

// issuePrefetch allocates a prefetch MSHR for a line unless it is already
// present or pending.
func (h *Hierarchy) issuePrefetch(line int64, stream int) {
	if h.l2.Peek(line) != Invalid {
		h.dropPrefetch()
		return
	}
	if _, ok := h.mshr[line]; ok {
		h.dropPrefetch()
		return
	}
	if len(h.mshr) >= h.cfg.MSHRs {
		h.dropPrefetch()
		return
	}
	e := &mshrEntry{demand: false, stream: stream}
	h.mshr[line] = e
	e.issued = h.port.ReadLine(line, false, stream, h.fillFn)
	if entry, ok := h.mshr[line]; ok && !entry.issued {
		h.queueFillRetry(line)
	}
}

// dropPrefetch records one dropped prefetch in both counter sets.
func (h *Hierarchy) dropPrefetch() {
	h.stats.PrefetchesDropped++
	if h.obs != nil {
		h.obs.pfDropped.Inc()
	}
}

// queueFillRetry records a port-rejected fill and queues its replay.
func (h *Hierarchy) queueFillRetry(line int64) {
	h.retryQ = append(h.retryQ, line)
	h.fillRetries++
	if h.obs != nil {
		h.obs.fillRetry.Inc()
	}
}

// Tick retries work the memory port previously rejected.
func (h *Hierarchy) Tick() {
	h.acted = false
	// Writebacks first: draining them in order preserves the same-line
	// ordering the cancelPendingWriteback fast path relies on.
	kept := h.wbQueue[:0]
	for i, line := range h.wbQueue {
		if !h.port.WriteLine(line, 0) {
			kept = append(kept, h.wbQueue[i:]...)
			break
		}
		h.acted = true
	}
	h.wbQueue = kept
	// Retry unissued fills in allocation order; map iteration would make
	// the schedule nondeterministic. A handful of rejections means the
	// controller queues are still full, so stop burning the cycle.
	keptR := h.retryQ[:0]
	rejections := 0
	for qi, ln := range h.retryQ {
		e, ok := h.mshr[ln]
		if !ok || e.issued {
			h.acted = true // stale entry dropped from the queue
			continue
		}
		if rejections >= 4 {
			keptR = append(keptR, h.retryQ[qi:]...)
			break
		}
		e.issued = h.port.ReadLine(ln, e.demand, e.stream, h.fillFn)
		if e.issued {
			h.acted = true
			continue
		}
		rejections++
		keptR = append(keptR, ln)
	}
	h.retryQ = keptR
	h.parked = !h.acted
	if h.parked {
		h.parkedAt = h.port.AdmissionVersion()
	}
}

// NextWake returns a lower bound on the next CPU cycle at which Tick can
// do anything, under the internal/sched contract.
//
//   - After a Tick that made progress: now+1 (the next Tick may make more).
//   - With empty writeback and retry queues: Never. Any later change
//     comes from fills or new accesses, which occur on cycles the event
//     loop already lands on.
//   - Parked (the last Tick only collected rejections): Never while the
//     port's admission version stands still. A refused request stays
//     refused until the version moves, and a refused retry has no side
//     effects, so every Tick until then is the identical no-op. Work the
//     hierarchy itself adds while parked (a writeback or fill retry the
//     port just refused) was refused at the current version and only
//     joins the queue tails. What would change the outcome unparks it:
//     a writeback cancelled out of the queue or an unissued fill
//     promoted to demand. A fill landing unparks it too, though fills
//     run inside the memory tick and a Tick follows on the same cycle.
//   - Otherwise, and whenever the version has moved: now+1. The version
//     can move after the landed cycle's Tick — the processor runs after
//     the hierarchy and may promote a queued prefetch (freeing the
//     controller's prefetch-share cap) or queue a write the refused read
//     now forwards from — and the steplock loop's retry would then
//     succeed one cycle later, on a cycle no other wake term lands on.
func (h *Hierarchy) NextWake(now int64) int64 {
	if !h.acted && len(h.wbQueue) == 0 && len(h.retryQ) == 0 {
		return sched.Never
	}
	if h.Parked() {
		return sched.Never
	}
	return now + 1
}

// Parked reports whether the next Tick is provably the last one's no-op:
// it only collected rejections, and neither the port's admission version
// nor anything the retries depend on has changed since (see NextWake).
// The event loop skips a parked hierarchy's Tick on the cycles other
// domains land on; the steplock reference loop runs it regardless.
func (h *Hierarchy) Parked() bool {
	return h.parked && h.port.AdmissionVersion() == h.parkedAt
}

// MSHRFreeVersion moves whenever an MSHR is freed, that is on every fill.
// While it stands still, an access AccessTagged refused with Retry stays
// refused, and repeating it changes nothing but the L1 and L2 miss
// counters (ChargeRefused): no MSHR can be allocated or merged into (the
// refused line had none, and new entries need a free one), and the line
// can reach the core's L1, the L2, or the writeback queue only through a
// fill (while the L2 is inclusive, an L2 hit's L1 victim never needs the
// writeback queue).
func (h *Hierarchy) MSHRFreeVersion() uint64 { return h.mshrFreeVer }

// ChargeRefused accounts n repeats of an access by core that AccessTagged
// refused with Retry, at an unchanged MSHRFreeVersion, without re-running
// it: each repeat would miss the core's L1 and the L2.
func (h *Hierarchy) ChargeRefused(core int, n int64) {
	h.l1[core].Misses += n
	h.l2.Misses += n
}

// fill handles a line arriving from memory.
func (h *Hierarchy) fill(line int64) {
	e, ok := h.mshr[line]
	if !ok {
		panic(fmt.Sprintf("cache: fill for line %d without MSHR", line))
	}
	delete(h.mshr, line)
	h.parked = false
	h.mshrFreeVer++

	h.installL2(line)
	if !e.demand {
		h.l2.SetPrefetched(line)
	}
	for _, w := range e.waiters {
		h.fillL1(w.core, line, w.write)
		if w.done != nil {
			w.done()
		}
	}
}

// installL2 inserts a line into the L2, handling inclusive eviction.
func (h *Hierarchy) installL2(line int64) {
	v := h.l2.Insert(line, Shared, false)
	if !v.Valid {
		return
	}
	// Back-invalidate L1 copies of the victim (inclusivity).
	dirty := v.Dirty
	if mask := h.sharers[v.Line]; mask != 0 {
		for c := 0; c < h.cfg.Cores; c++ {
			if mask>>c&1 == 0 {
				continue
			}
			h.stats.BackInvalidations++
			if _, d := h.l1[c].Invalidate(v.Line); d {
				dirty = true
			}
		}
		delete(h.sharers, v.Line)
	}
	if dirty {
		h.writeback(v.Line)
	}
}

// writeback sends a dirty line to memory, queueing on backpressure.
func (h *Hierarchy) writeback(line int64) {
	h.stats.Writebacks++
	if !h.port.WriteLine(line, 0) {
		h.wbQueue = append(h.wbQueue, line)
		h.wbBackpressure++
		if n := int64(len(h.wbQueue)); n > h.wbQueuePeak {
			h.wbQueuePeak = n
		}
		if h.obs != nil {
			h.obs.wbQueued.Inc()
			h.obs.wbPeak.Max(int64(len(h.wbQueue)))
		}
	}
}

// cancelPendingWriteback removes line from the writeback queue, returning
// whether it was there (its data is still the freshest copy).
func (h *Hierarchy) cancelPendingWriteback(line int64) bool {
	for i, l := range h.wbQueue {
		if l == line {
			h.wbQueue = append(h.wbQueue[:i], h.wbQueue[i+1:]...)
			h.stats.Writebacks--
			h.parked = false // the writeback behind it was never offered
			return true
		}
	}
	return false
}

// ownerHasModified reports whether an L1 other than core holds the line in
// M, downgrading it (read sharing) as a side effect.
func (h *Hierarchy) ownerHasModified(line int64, core int) bool {
	mask := h.sharers[line]
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core || mask>>c&1 == 0 {
			continue
		}
		if h.l1[c].Peek(line) == Modified {
			h.l1[c].SetState(line, Shared)
			h.l2.Insert(line, Shared, true) // owner's data flows into the L2
			return true
		}
	}
	return false
}

// invalidateOthers removes every other L1's copy, absorbing dirty data into
// the L2.
func (h *Hierarchy) invalidateOthers(line int64, core int) {
	mask := h.sharers[line]
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core || mask>>c&1 == 0 {
			continue
		}
		if _, dirty := h.l1[c].Invalidate(line); dirty {
			h.l2.Insert(line, Shared, true)
		}
	}
	h.sharers[line] = mask & (1 << core)
}

// fillL1 installs a line into a core's L1 with the right MESI state and
// updates the sharer set, spilling any L1 victim into the L2.
func (h *Hierarchy) fillL1(core int, line int64, write bool) {
	mask := h.sharers[line]
	others := mask &^ (1 << core)

	var st State
	switch {
	case write:
		if others != 0 {
			h.invalidateOthers(line, core)
		}
		st = Modified
	case others != 0:
		st = Shared
		// A second reader demotes any exclusive/modified holder to S,
		// pushing modified data into the L2.
		for c := 0; c < h.cfg.Cores; c++ {
			if c == core || others>>c&1 == 0 {
				continue
			}
			switch h.l1[c].Peek(line) {
			case Modified:
				h.l1[c].SetState(line, Shared)
				h.l2.Insert(line, Shared, true)
			case Exclusive:
				h.l1[c].SetState(line, Shared)
			}
		}
	default:
		st = Exclusive
	}

	v := h.l1[core].Insert(line, st, write)
	if write {
		h.sharers[line] = 1 << core
	} else {
		h.sharers[line] |= 1 << core
	}

	if v.Valid {
		// Shrink the victim's sharer set; push dirty data into the L2.
		h.sharers[v.Line] &^= 1 << core
		if h.sharers[v.Line] == 0 {
			delete(h.sharers, v.Line)
		}
		if v.Dirty {
			if h.l2.Peek(v.Line) != Invalid {
				h.l2.MarkDirty(v.Line)
			} else {
				// Inclusivity was broken by an L2 eviction race; write the
				// data home directly.
				h.writeback(v.Line)
			}
		}
	}
}
