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
// controller's state can change without new enqueues. Every term is
// computed in full on every call: the per-bank queue index (bankQueues)
// makes the scheduler term one visit per non-empty bank.
func (c *Controller) NextWake() int64 {
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
	if w > c.now+1 {
		w = min(w, c.schedulerTerm(w))
	}
	return max(w, c.now+1)
}

// schedulerTerm returns scheduleWake(limit), reusing the last result while
// schedVer stands still. A result below its limit is the exact scheduler
// bound max(now+1, raw), where raw - the minimum over the candidates of
// their constraint, backoff and rank wake-up - does not depend on now.
func (c *Controller) schedulerTerm(limit int64) int64 {
	if c.schedNextVer == c.schedVer && c.schedNextExact {
		return min(limit, max(c.now+1, c.schedNext))
	}
	s := c.scheduleWake(limit)
	c.schedNext, c.schedNextVer, c.schedNextExact = s, c.schedVer, s < limit
	return s
}

// powerDownWake bounds the power-down state machine's next action. Ranks
// counting toward the idle threshold wake at their deadline; ranks mid
// wake-up at tXP expiry. A rank already past the threshold is precharging
// (or waiting on a constraint-bound precharge) and aborts the scan for
// later ranks inside powerDownTick, so the controller must tick every
// cycle until it finishes powering down - skipping there would starve the
// later ranks of their per-cycle accounting.
func (c *Controller) powerDownWake() int64 {
	w := sched.Never
	for r := range c.pd {
		pd := &c.pd[r]
		want := c.rankQueued[r] > 0 || c.refPending[r]
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
// candidate command meets its constraints, or limit if none does sooner.
// The candidates are a column command to every queued row hit and the
// PRE/ACT each bank's per-class claimant needs (pick's bank shadowing),
// each gated by retry backoff and rank wake-up; ranks draining for
// refresh or powered down are frozen for the whole window. Demand
// escalation only selects among ready candidates, so the minimum over
// them bounds every ordering.
//
// dram.Channel.EarliestIssue is max(from, constraint), with a constraint
// that depends only on the command's bank and kind, so one probe per
// bank and command kind at the smallest eligible from equals the minimum
// over the bank's requests. A candidate's bound is never below its
// eligible from, so the walk stops once the bound reaches now+1, and a
// bank is probed only when one of its candidates could beat the bound so
// far.
func (c *Controller) scheduleWake(limit int64) int64 {
	// The write-drain mode the next Tick settles in holds for the whole
	// window, so the stored writeMode being stale during a skip is
	// unobservable.
	q := &c.rqIdx
	_, write := c.drainState()
	if write {
		q = &c.wqIdx
	}
	col := dram.RD
	if write {
		col = dram.WR
	}
	w, floor := limit, c.now+1
	examined := 0
	for b := q.nextBank(0); b >= 0 && w > floor; b = q.nextBank(b + 1) {
		heads, n := q.heads(b)
		examined += n
		rep := heads[0]
		if rep == nil {
			rep = heads[1]
		}
		pd := &c.pd[rep.loc.Rank]
		if c.refPending[rep.loc.Rank] || pd.down {
			continue
		}
		base := max(floor, pd.wakeAt)
		if base >= w {
			continue
		}
		row, open := c.ch.OpenRowAt(b)
		work := sched.Never
		for _, h := range heads {
			if h != nil && (!open || h.loc.Row != row) {
				work = min(work, max(base, h.retryAt))
			}
		}
		if work < w {
			kind := dram.ACT
			if open {
				kind = dram.PRE
			}
			w = min(w, c.ch.EarliestIssue(c.bankCmd(rep, kind, rep.loc.Row), work))
		}
		if !open || base >= w {
			continue
		}
		hit := sched.Never
	scan:
		for _, list := range q.lists[b] {
			for i, r := range list {
				if i > 0 {
					examined++
				}
				if r.loc.Row == row {
					if hit = min(hit, max(base, r.retryAt)); hit == base {
						break scan
					}
				}
			}
		}
		if hit < w {
			w = min(w, c.ch.EarliestIssue(c.bankCmd(rep, col, row), hit))
		}
	}
	if c.obs != nil {
		c.obs.schedExamined.Add(int64(examined))
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
