package memctrl

import (
	"mil/internal/dram"
	"mil/internal/sched"
)

// This file implements the event-core side of the controller: NextWake
// reports a lower bound on the next DRAM cycle at which Tick would do
// anything but per-cycle bookkeeping, and SkipUntil performs that
// bookkeeping in bulk for a window of proven no-op cycles. Together they
// let the simulation loop jump over the idle stretches the paper is about
// (Figure 4/5) instead of ticking through them.
//
// The contract (see internal/sched): between the current cycle and the
// returned wake, Tick would not complete a read, flip a refresh due date,
// move the power-down state machine, or issue any command - provided the
// queues receive no new requests, which the event loop guarantees by
// recomputing wakes after every landed cycle. Early wakes are harmless
// (the Tick is a no-op and reports a new bound); late wakes are bugs,
// caught by the steplock differential tests.

// NextWake returns a lower bound on the earliest cycle > now at which the
// controller's state can change without new enqueues.
//
// Fast path: while the controller is actively working or merely pausing
// inside a short DRAM timing gap (tCCD, tRCD, turnarounds — all well under
// wakeScanAfter cycles), return now+1 without the scans below — an early
// wake is a cheap no-op Tick by contract, no worse than the steplock loop.
// Only after wakeScanAfter consecutive no-op Ticks is the controller
// plausibly entering a stretch long enough (refresh intervals, power-down
// idling, drained queues) for the O(queues×banks) wake computation to buy
// back more than it costs; the scan result is memoized across the no-op
// Ticks that follow it.
const wakeScanAfter = 16

func (c *Controller) NextWake() int64 {
	if c.acted || c.idleRun < wakeScanAfter {
		if c.obs != nil {
			c.obs.wakeFastpath.Inc()
		}
		return c.now + 1
	}
	if c.wakeValid && c.wake > c.now {
		if c.obs != nil {
			c.obs.wakeMemoized.Inc()
		}
		return c.wake
	}
	if c.obs != nil {
		c.obs.wakeFullScan.Inc()
	}
	w := sched.Never
	for i := range c.inflight {
		w = min(w, c.inflight[i].done)
	}
	for i := range c.deferred {
		w = min(w, c.deferred[i].done)
	}
	for r := range c.refDue {
		if !c.refPending[r] {
			w = min(w, c.refDue[r])
		}
	}
	if c.cfg.PowerDown.Enable {
		w = min(w, c.powerDownWake())
	}
	w = min(w, c.refreshWake())
	w = min(w, c.scheduleWake())
	if w <= c.now {
		w = c.now + 1
	}
	c.wake, c.wakeValid = w, true
	return w
}

// powerDownWake bounds the power-down state machine's next action. Ranks
// counting toward the idle threshold wake at their deadline; ranks mid
// wake-up at tXP expiry. A rank already past the threshold is precharging
// (or waiting on a constraint-bound precharge) and aborts the scan for
// later ranks inside powerDownTick, so the controller must tick every
// cycle until it finishes powering down - skipping there would starve the
// later ranks of their per-cycle accounting.
func (c *Controller) powerDownWake() int64 {
	var needed uint32
	for _, req := range c.rq {
		needed |= 1 << req.loc.Rank
	}
	for _, req := range c.wq {
		needed |= 1 << req.loc.Rank
	}
	w := sched.Never
	for r := range c.pd {
		pd := &c.pd[r]
		want := needed>>r&1 == 1 || c.refPending[r]
		if pd.down {
			// A down rank sleeps until want flips (an enqueue or the refresh
			// falling due, both of which land the loop); once wanted, the
			// next tick must run powerDownTick to start the exit.
			if want {
				return c.now + 1
			}
			continue
		}
		if pd.wakeAt > c.now {
			w = min(w, pd.wakeAt) // usable again (and idle clock restarts)
			continue
		}
		if want {
			continue // serviced by the scheduler/refresh terms
		}
		if pd.idleSince < 0 {
			return c.now + 1 // next tick starts the idle clock
		}
		deadline := pd.idleSince + int64(c.cfg.PowerDown.IdleCycles)
		if deadline > c.now {
			w = min(w, deadline)
			continue
		}
		return c.now + 1 // past threshold: precharge drain in progress
	}
	return w
}

// refreshWake bounds refresh progress: for each pending rank, the earliest
// cycle its next drain precharge (or, with all banks closed, the REF
// itself) meets the timing constraints.
func (c *Controller) refreshWake() int64 {
	g := c.cfg.DRAM.Geometry
	w := sched.Never
	for r := range c.refPending {
		if !c.refPending[r] || c.pd[r].down {
			continue
		}
		from := max(c.now+1, c.pd[r].wakeAt)
		allClosed := true
		for bg := 0; bg < g.BankGroups; bg++ {
			for b := 0; b < g.BanksPerGroup; b++ {
				if _, open := c.ch.OpenRow(r, bg, b); !open {
					continue
				}
				allClosed = false
				cmd := dram.Command{Kind: dram.PRE, Rank: r, Group: bg, Bank: b}
				w = min(w, c.ch.EarliestIssue(cmd, from))
			}
		}
		if allClosed {
			w = min(w, c.ch.EarliestIssue(dram.Command{Kind: dram.REF, Rank: r}, from))
		}
	}
	return w
}

// scheduleWake bounds the FR-FCFS scheduler: the earliest cycle any
// candidate command (ready column hit, or the per-bank PRE/ACT the oldest
// request needs) meets its constraints. Pass order (demand escalation)
// only selects among ready candidates, so the minimum over the candidate
// union is a valid bound for every ordering.
func (c *Controller) scheduleWake() int64 {
	// Replay the write-drain hysteresis to its fixed point: with frozen
	// queue depths the mode settles after one evaluation, so the stored
	// writeMode being stale during a skip window is unobservable.
	wm := c.writeMode
	if len(c.wq) >= c.cfg.DrainHigh {
		wm = true
	} else if wm && len(c.wq) <= c.cfg.DrainLow {
		wm = false
	}
	active, write := c.rq, false
	if wm || (len(c.rq) == 0 && len(c.wq) > 0) {
		active, write = c.wq, true
	}
	if len(active) == 0 {
		return sched.Never
	}

	w := sched.Never
	// Column candidates: every request whose row is open (readyHits claims
	// no banks; it only skips banks whose probe is not ready this cycle).
	for _, req := range active {
		row, open := c.ch.OpenRowAt(int(req.bank))
		if !open || row != req.loc.Row {
			continue
		}
		if from, ok := c.reqEligible(req); ok {
			w = min(w, c.ch.EarliestIssue(c.probeCAS(req, write), from))
		}
	}
	// Bank-work candidates, mirroring fcfsPass's per-pass shadowing: the
	// demand and prefetch passes each shadow banks independently.
	if write {
		w = min(w, c.fcfsWake(active, keepAll))
	} else {
		w = min(w, c.fcfsWake(active, keepDemand))
		w = min(w, c.fcfsWake(active, keepPrefetch))
	}
	return w
}

// reqEligible returns the first cycle > now the request may be scheduled
// (retry backoff and rank wake-up), or ok=false when its rank is frozen
// for the whole window (refresh drain or power-down).
func (c *Controller) reqEligible(req *Request) (int64, bool) {
	pd := &c.pd[req.loc.Rank]
	if c.refPending[req.loc.Rank] || pd.down {
		return 0, false
	}
	return max(c.now+1, req.retryAt, pd.wakeAt), true
}

// fcfsWake walks the queue oldest-first with fcfsPass's bank shadowing
// (the first request per bank claims it before eligibility checks) and
// bounds the earliest PRE/ACT issue among the claimants.
func (c *Controller) fcfsWake(active []*Request, keep int) int64 {
	c.bankStamp++
	w := sched.Never
	for _, req := range active {
		if skipReq(keep, req) {
			continue
		}
		if c.banksTmp[req.bank] == c.bankStamp {
			continue
		}
		c.banksTmp[req.bank] = c.bankStamp
		from, ok := c.reqEligible(req)
		if !ok {
			continue
		}
		row, open := c.ch.OpenRowAt(int(req.bank))
		switch {
		case open && row == req.loc.Row:
			// Ready hit: covered by the column-candidate scan.
		case open:
			cmd := dram.Command{Kind: dram.PRE, Rank: req.loc.Rank, Group: req.loc.Group, Bank: req.loc.Bank}
			w = min(w, c.ch.EarliestIssue(cmd, from))
		default:
			cmd := dram.Command{Kind: dram.ACT, Rank: req.loc.Rank, Group: req.loc.Group, Bank: req.loc.Bank, Row: req.loc.Row}
			w = min(w, c.ch.EarliestIssue(cmd, from))
		}
	}
	return w
}

// SkipUntil advances the controller to cycle `to`, performing the per-cycle
// bookkeeping the (provably no-op) Ticks of (c.now, to] would have done:
// cycle and occupancy counters, the Figure 5 busy/idle classification from
// the still-active burst windows, and power-down residency. The caller
// must only skip to cycles strictly before NextWake.
func (c *Controller) SkipUntil(to int64) {
	if to <= c.now {
		return
	}
	n := to - c.now
	c.stats.Ticks += n
	c.stats.RQOccupancySum += n * int64(len(c.rq))
	c.stats.WQOccupancySum += n * int64(len(c.wq))
	if c.cfg.PowerDown.Enable {
		var down int64
		for r := range c.pd {
			if c.pd[r].down {
				down++
			}
		}
		c.stats.PowerDownCycles += n * down
	}
	// Bulk classify: a cycle t is busy when a burst window covers it
	// (Start <= t < End); windows fully past by `to` are pruned exactly as
	// classify would have pruned them.
	var busy int64
	cur := c.now + 1 // idle-window cursor for the obs run tracker
	kept := c.activeBurst[:0]
	for _, wdw := range c.activeBurst {
		lo := max(wdw.Start, c.now+1)
		hi := min(wdw.End-1, to)
		if hi >= lo {
			busy += hi - lo + 1
			// Mirror the per-cycle classification for the idle-window
			// tracker: windows are non-overlapping and issue-ordered
			// (dram.Channel serializes the bus), so walking them in order
			// with a cursor visits each skipped cycle exactly once.
			if c.obs != nil {
				if lo > cur {
					c.obs.idleAt(cur)
				}
				c.obs.busyAt(lo)
			}
			cur = hi + 1
		}
		if wdw.End > to {
			kept = append(kept, wdw)
		}
	}
	if c.obs != nil && cur <= to {
		c.obs.idleAt(cur)
	}
	c.activeBurst = kept
	idle := n - busy
	if len(c.rq)+len(c.wq) > 0 {
		c.stats.IdlePendingCycles += idle
	} else {
		c.stats.IdleEmptyCycles += idle
	}
	c.now = to
	c.started = true
}
