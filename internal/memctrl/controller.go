package memctrl

import (
	"fmt"
	"io"

	"mil/internal/bitblock"
	"mil/internal/dram"
)

// PowerDownConfig enables the fast power-down extension the paper points
// at in Section 7.3 (Malladi et al. [60]): a rank with all banks precharged
// and no queued work enters power-down after IdleCycles, paying the lower
// IDD2P background current; waking costs XP cycles before its next command.
// The paper's evaluated systems run with this off (DDR4's lack of a fast
// power-down mode is why background energy dominates Figure 18(a)).
type PowerDownConfig struct {
	Enable     bool
	IdleCycles int // idle threshold before entering power-down
	XP         int // exit latency in DRAM cycles
}

// RetryConfig bounds the NACK-and-replay path. Zero fields select the
// defaults; the zero value is a fully usable configuration.
type RetryConfig struct {
	// MaxRetries is the replay budget per request; past it the request is
	// abandoned (counted in RetriesExhausted) rather than retried forever
	// (0 selects the default of 8).
	MaxRetries int
	// BackoffBase is the first replay delay in DRAM cycles, doubled per
	// retry of the same request (0 selects the default of 4).
	BackoffBase int
	// BackoffMax caps the per-request exponential backoff (0 selects the
	// default of 256).
	BackoffMax int
	// StormThreshold is the number of consecutive channel-wide failures
	// past which the controller assumes a persistent fault and quadruples
	// every backoff - the retry-storm guard (0 selects the default of 16).
	StormThreshold int
}

// maxRetries, backoffBase, backoffMax, stormThreshold apply the defaults.
func (r *RetryConfig) maxRetries() int {
	if r.MaxRetries <= 0 {
		return 8
	}
	return r.MaxRetries
}

func (r *RetryConfig) backoffBase() int {
	if r.BackoffBase <= 0 {
		return 4
	}
	return r.BackoffBase
}

func (r *RetryConfig) backoffMax() int {
	if r.BackoffMax <= 0 {
		return 256
	}
	return r.BackoffMax
}

func (r *RetryConfig) stormThreshold() int {
	if r.StormThreshold <= 0 {
		return 16
	}
	return r.StormThreshold
}

// Validate reports configuration errors.
func (r *RetryConfig) Validate() error {
	switch {
	case r.MaxRetries < 0:
		return fmt.Errorf("memctrl: max retries %d < 0", r.MaxRetries)
	case r.BackoffBase < 0 || r.BackoffMax < 0:
		return fmt.Errorf("memctrl: backoff %d/%d < 0", r.BackoffBase, r.BackoffMax)
	case r.BackoffMax > 0 && r.BackoffBase > r.BackoffMax:
		return fmt.Errorf("memctrl: backoff base %d > cap %d", r.BackoffBase, r.BackoffMax)
	case r.StormThreshold < 0:
		return fmt.Errorf("memctrl: storm threshold %d < 0", r.StormThreshold)
	}
	return nil
}

// Config parameterizes one channel's controller. The defaults mirror
// Table 2: 64-entry queues, write-drain watermarks 60/50, FR-FCFS with an
// open-page policy.
type Config struct {
	DRAM       dram.Config
	ReadQueue  int
	WriteQueue int
	DrainHigh  int
	DrainLow   int
	PowerDown  PowerDownConfig
	// Reliability configures the DDR4 RAS features (write CRC, CA parity)
	// whose NACKs drive the retry path. The zero value disables both.
	Reliability dram.Reliability
	// Retry bounds the replay of NACKed transfers.
	Retry RetryConfig
	// Trace receives one line per issued DRAM command when non-nil:
	// "<cycle> ch<N> <command> [annotation]".
	Trace io.Writer
}

// DefaultConfig returns the Table 2 controller parameters over the given
// device config.
func DefaultConfig(d dram.Config) Config {
	return Config{DRAM: d, ReadQueue: 64, WriteQueue: 64, DrainHigh: 60, DrainLow: 50}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	switch {
	case c.ReadQueue <= 0 || c.WriteQueue <= 0:
		return fmt.Errorf("memctrl: queue sizes %d/%d", c.ReadQueue, c.WriteQueue)
	case c.DrainHigh > c.WriteQueue || c.DrainLow < 0 || c.DrainLow >= c.DrainHigh:
		return fmt.Errorf("memctrl: drain watermarks %d/%d with queue %d", c.DrainHigh, c.DrainLow, c.WriteQueue)
	case c.PowerDown.Enable && (c.PowerDown.IdleCycles <= 0 || c.PowerDown.XP <= 0):
		return fmt.Errorf("memctrl: power-down idle %d / xp %d", c.PowerDown.IdleCycles, c.PowerDown.XP)
	}
	if err := c.Reliability.Validate(); err != nil {
		return err
	}
	return c.Retry.Validate()
}

// demandEscalationAge is the queueing age (DRAM cycles) past which the
// oldest demand read's bank work preempts ready prefetch hits.
const demandEscalationAge = 96

// rankPD tracks one rank's power-down state.
type rankPD struct {
	down      bool
	idleSince int64 // first cycle of the current idle stretch (-1 = active)
	wakeAt    int64 // rank unusable until this cycle after a wake-up
}

// inflightRead tracks a read whose data burst is still in flight.
type inflightRead struct {
	req  *Request
	done int64
}

// Controller schedules one DRAM channel.
type Controller struct {
	cfg    Config
	ch     *dram.Channel
	mem    Memory
	policy Policy
	phy    Phy

	rq []*Request
	wq []*Request

	writeMode  bool
	refDue     []int64
	refPending []bool
	pd         []rankPD

	inflight    []inflightRead
	deferred    []inflightRead     // forwarded/coalesced completions, fired on a later tick
	activeBurst []dram.BurstWindow // windows not yet past, for busy classification

	stats   *Stats
	now     int64
	started bool
	id      int // channel index, for trace output

	// rqIdx and wqIdx index the queues by bank (see bankQueues); seq
	// stamps each admitted request with its age. rankQueued counts the
	// queued reads and writes per rank, for the power-down machine. All
	// are derived from the queues: Restore rebuilds them.
	rqIdx, wqIdx bankQueues
	seq          uint64
	rankQueued   []int
	// hitCands and workCands are pick's per-class scratch: each bank's
	// oldest eligible row hit and its claimant's PRE/ACT.
	hitCands, workCands [2][]choice
	// schedVer counts changes to what the scheduler reads: the queues,
	// device timing, rank refresh and power-down state, retry backoff.
	// schedNext is the scheduler term of the last NextWake, taken at
	// version schedNextVer: no candidate can issue before it, so while the
	// version stands still schedule skips pick before it, and NextWake
	// reuses it when it was exact (schedNextExact). Reuse never changes a
	// command or a wake, only the work done to find them.
	schedVer, schedNextVer uint64
	schedNext              int64
	schedNextExact         bool

	// prefetches counts the non-demand reads in rq, so the prefetch-share
	// admission check is O(1). Enqueue, dequeueRead, and Promote keep it
	// in step; Restore rebuilds it.
	prefetches int
	// admitVer is bumped whenever a previously refused Enqueue could now
	// succeed (see AdmissionVersion).
	admitVer uint64

	// la and colBlk are per-issue scratch, hoisted so the Lookahead box
	// and the transferred cache line never escape to the heap (the column
	// path is alloc-free; see TestTickSteadyStateZeroAllocObsDisabled).
	la     lookahead
	colBlk bitblock.Block

	// obs, when non-nil, carries the observability handles and the
	// idle-window run tracker. Nil keeps every instrumented site on a
	// single-branch zero-allocation path (see SetObs in obs.go).
	obs *ctrlObs

	consecFail int  // consecutive link failures, channel-wide (storm guard)
	inStorm    bool // currently past the storm threshold

	// epoch drives the optional per-epoch policy feedback (EpochObserver).
	// A policy that does not observe epochs leaves epoch.obs nil and the
	// column path pays one nil check per burst.
	epoch epochTracker

	// doneHook, when non-nil, observes every request completion in place
	// of the per-request OnDone closure (which still fires if set). The
	// replay driver uses it, with Request.Tag as the event identity, to
	// verify completion cycles without allocating a closure per event.
	doneHook func(req *Request, now int64)
}

// SetDoneHook installs a channel-wide completion observer. It fires for
// every request the controller completes (reads, writes, forwarded hits,
// and retry-exhausted abandons), after the request's own OnDone callback.
func (c *Controller) SetDoneHook(hook func(req *Request, now int64)) { c.doneHook = hook }

// fireDone completes a request through its callback and the channel hook.
func (c *Controller) fireDone(req *Request, now int64) {
	req.complete(now)
	if c.doneHook != nil {
		c.doneHook(req, now)
	}
}

// SetID labels the controller's trace lines with its channel index.
func (c *Controller) SetID(id int) { c.id = id }

// traceCmd records one issued command with the enabled trace sinks: an
// instant on the obs command track, and a line on the text trace writer.
func (c *Controller) traceCmd(now int64, cmd dram.Command, extra string) {
	if c.obs != nil {
		c.obs.traceIssue(now, cmd)
	}
	if c.cfg.Trace == nil {
		return
	}
	if extra != "" {
		fmt.Fprintf(c.cfg.Trace, "%d ch%d %s %s\n", now, c.id, cmd, extra)
		return
	}
	fmt.Fprintf(c.cfg.Trace, "%d ch%d %s\n", now, c.id, cmd)
}

// NewController wires a controller over a fresh channel model.
func NewController(cfg Config, mem Memory, policy Policy, phy Phy) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil || policy == nil || phy == nil {
		return nil, fmt.Errorf("memctrl: nil memory, policy, or phy")
	}
	ch, err := dram.NewChannel(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	banks := cfg.DRAM.Geometry.Ranks * cfg.DRAM.Geometry.Banks()
	c := &Controller{
		cfg: cfg, ch: ch, mem: mem, policy: policy, phy: phy,
		refDue:     make([]int64, cfg.DRAM.Geometry.Ranks),
		refPending: make([]bool, cfg.DRAM.Geometry.Ranks),
		pd:         make([]rankPD, cfg.DRAM.Geometry.Ranks),
		stats:      NewStats(),
		rqIdx:      newBankQueues(banks),
		wqIdx:      newBankQueues(banks),
		rankQueued: make([]int, cfg.DRAM.Geometry.Ranks),
		// Queues and in-flight tracking are preallocated to their
		// steady-state bounds so the tick path (and the replay driver
		// built on it) never grows them mid-run.
		rq:          make([]*Request, 0, cfg.ReadQueue),
		wq:          make([]*Request, 0, cfg.WriteQueue),
		inflight:    make([]inflightRead, 0, cfg.ReadQueue),
		deferred:    make([]inflightRead, 0, cfg.ReadQueue+cfg.WriteQueue),
		activeBurst: make([]dram.BurstWindow, 0, cfg.ReadQueue),
	}
	if eo, ok := policy.(EpochObserver); ok {
		n := eo.EpochLength()
		if n <= 0 {
			return nil, fmt.Errorf("memctrl: policy %s epoch length %d <= 0", policy.Name(), n)
		}
		c.epoch.obs, c.epoch.every = eo, int64(n)
	}
	for r := range c.pd {
		c.pd[r].idleSince = -1
	}
	// Stagger per-rank refresh so ranks do not refresh in lockstep.
	step := int64(cfg.DRAM.Timing.REFI) / int64(cfg.DRAM.Geometry.Ranks)
	for r := range c.refDue {
		c.refDue[r] = int64(cfg.DRAM.Timing.REFI) - int64(r)*step
	}
	return c, nil
}

// Stats exposes the controller's counters.
func (c *Controller) Stats() *Stats { return c.stats }

// Channel exposes the underlying device model (read-only use).
func (c *Controller) Channel() *dram.Channel { return c.ch }

// QueueDepths returns the current read/write queue occupancy.
func (c *Controller) QueueDepths() (int, int) { return len(c.rq), len(c.wq) }

// Pending reports whether any work remains queued or in flight.
func (c *Controller) Pending() bool {
	return len(c.rq) > 0 || len(c.wq) > 0 || len(c.inflight) > 0 || len(c.deferred) > 0
}

// Enqueue admits a request, returning false when the target queue is full.
// Reads that hit a queued write are served by forwarding and complete on
// the next cycle without a DRAM access; writes to an already-queued line
// coalesce in place. A refused request leaves the controller untouched:
// it can only be admitted after AdmissionVersion moves.
func (c *Controller) Enqueue(req *Request, now int64) bool {
	if req.Write {
		for _, w := range c.wq {
			if w.Line == req.Line {
				w.Data = req.Data // coalesce
				c.deferred = append(c.deferred, inflightRead{req: req, done: now + 1})
				return true
			}
		}
		if len(c.wq) >= c.cfg.WriteQueue {
			return false
		}
		req.Arrive = now
		c.admit(req)
		c.wq = append(c.wq, req)
		c.wqIdx.push(req, 0)
		c.admitVer++ // a refused read of this line can now forward
		if c.obs != nil {
			c.obs.wqPeak.Max(int64(len(c.wq)))
		}
		return true
	}
	for _, w := range c.wq {
		if w.Line == req.Line {
			c.stats.Forwards++
			// Completion is deferred to the next tick: synchronous
			// completion inside Enqueue would fire the caller's callback
			// before the caller has even recorded the request as pending.
			c.deferred = append(c.deferred, inflightRead{req: req, done: now + 1})
			return true
		}
	}
	if len(c.rq) >= c.cfg.ReadQueue {
		return false
	}
	// Prefetches are admitted only up to a fixed share of the queue so
	// they cannot crowd out (or add queueing delay to) demand misses.
	if !req.Demand && c.prefetches >= c.cfg.ReadQueue/4 {
		return false
	}
	req.Arrive = now
	c.admit(req)
	req.queued = true
	if !req.Demand {
		c.prefetches++
	}
	c.rq = append(c.rq, req)
	c.rqIdx.push(req, readClass(req))
	if c.obs != nil {
		c.obs.rqPeak.Max(int64(len(c.rq)))
	}
	return true
}

// Promote raises a read to demand priority. For a read waiting in this
// controller's queue it frees a prefetch-share slot, so the admission
// version moves, and the read moves to its bank's demand list. Reads
// already issued (or never admitted) only change their own flag. Callers
// must not write Request.Demand directly once the request has been
// offered to Enqueue.
func (c *Controller) Promote(req *Request) {
	if req.Demand {
		return
	}
	if req.queued {
		c.rqIdx.remove(req, 1)
		req.Demand = true
		c.rqIdx.insert(req, 0)
		c.schedVer++
		c.prefetches--
		c.admitVer++
		return
	}
	req.Demand = true
}

// AdmissionVersion counts the events after which a previously refused
// Enqueue could succeed: a read or write leaving its queue, a write
// joining the write queue (a refused read of that line now forwards),
// and a queued read's promotion (a freed prefetch-share slot). While it
// stands still, every refused request stays refused.
func (c *Controller) AdmissionVersion() uint64 { return c.admitVer }

// bankIndex names the request's bank in the flat per-channel tables (the
// device's OpenRowAt and the scheduler's bank index).
func (c *Controller) bankIndex(req *Request) int {
	return c.cfg.DRAM.Geometry.BankIndex(req.loc.Rank, req.loc.Group, req.loc.Bank)
}

// admit stamps a request joining a queue with its bank and age, and
// counts it against its rank.
func (c *Controller) admit(req *Request) {
	c.schedVer++
	req.bank = int32(c.bankIndex(req))
	c.seq++
	req.seq = c.seq
	c.rankQueued[req.loc.Rank]++
}

// dequeueRead removes rq[idx] (issued or abandoned).
func (c *Controller) dequeueRead(idx int) {
	req := c.rq[idx]
	req.queued = false
	if !req.Demand {
		c.prefetches--
	}
	c.rqIdx.remove(req, readClass(req))
	c.rankQueued[req.loc.Rank]--
	c.schedVer++
	c.rq = removeAt(c.rq, idx)
	c.admitVer++
}

// dequeueWrite removes wq[idx] (written or abandoned).
func (c *Controller) dequeueWrite(idx int) {
	req := c.wq[idx]
	c.wqIdx.remove(req, 0)
	c.rankQueued[req.loc.Rank]--
	c.schedVer++
	c.wq = removeAt(c.wq, idx)
	c.admitVer++
}

// issueCmd issues a command to the device.
func (c *Controller) issueCmd(cmd dram.Command, now int64) dram.BurstInfo {
	c.schedVer++
	return c.ch.Issue(cmd, now)
}

// queuePos returns req's position in queue, which is in seq order.
func queuePos(queue []*Request, req *Request) int {
	lo, hi := 0, len(queue)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if queue[m].seq < req.seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Tick advances the controller one DRAM cycle: completes arrived reads,
// manages refresh, issues at most one command, and classifies the cycle for
// the Figure 5 statistics. Cycles must be presented monotonically.
func (c *Controller) Tick(now int64) {
	if c.started && now <= c.now {
		panic(fmt.Sprintf("memctrl: tick %d after %d", now, c.now))
	}
	c.now = now
	c.started = true

	c.completeReads(now)

	for r := range c.refDue {
		if now >= c.refDue[r] && !c.refPending[r] {
			c.refPending[r] = true
			c.schedVer++
		}
	}
	issued := false
	if c.cfg.PowerDown.Enable {
		c.schedVer++ // the power-down machine moves rank state freely
		issued = c.powerDownTick(now)
	}
	if !issued {
		issued = c.tryRefresh(now)
	}
	if !issued {
		c.schedule(now)
	}

	c.classify(now)
	c.stats.Ticks++
	c.stats.RQOccupancySum += int64(len(c.rq))
	c.stats.WQOccupancySum += int64(len(c.wq))
}

// completeReads retires reads whose data has fully arrived, plus deferred
// forwarding/coalescing completions.
func (c *Controller) completeReads(now int64) {
	kept := c.inflight[:0]
	for _, f := range c.inflight {
		if f.done <= now {
			c.stats.ReadLatencySum += now - f.req.Arrive
			c.stats.ReadsCompleted++
			if f.req.Demand {
				c.stats.DemandLatencySum += now - f.req.Arrive
				c.stats.DemandReadsCompleted++
			}
			c.fireDone(f.req, now)
		} else {
			kept = append(kept, f)
		}
	}
	c.inflight = kept

	// A completion callback may enqueue, and a write coalescing into the
	// write queue appends to deferred mid-walk; walking by index through
	// the live slice keeps such entries instead of dropping them.
	n := 0
	for i := 0; i < len(c.deferred); i++ {
		f := c.deferred[i]
		if f.done <= now {
			c.fireDone(f.req, now)
			continue
		}
		c.deferred[n] = f
		n++
	}
	c.deferred = c.deferred[:n]
}

// blockedRanks returns the mask of ranks new activity should avoid this
// cycle because a refresh is trying to drain them or they are powered
// down / waking up. The scheduler computes it once per cycle: nothing in
// a scheduling pass changes it.
func (c *Controller) blockedRanks() uint32 {
	var m uint32
	for r := range c.pd {
		if c.refPending[r] || c.pd[r].down || c.pd[r].wakeAt > c.now {
			m |= 1 << r
		}
	}
	return m
}

// powerDownTick advances the power-down state machine: a rank with nothing
// queued for it starts an idle clock; past the threshold its open rows are
// precharged (consuming the cycle's command slot) and it enters power-down.
// Ranks with arriving work pay the tXP wake latency. Returns true if it
// issued a command this cycle.
func (c *Controller) powerDownTick(now int64) bool {
	g := c.cfg.DRAM.Geometry
	for r := range c.pd {
		pd := &c.pd[r]
		want := c.rankQueued[r] > 0 || c.refPending[r]
		if pd.down {
			c.stats.PowerDownCycles++
			if want {
				pd.down = false
				pd.wakeAt = now + int64(c.cfg.PowerDown.XP)
				pd.idleSince = -1
				c.stats.PowerDownExits++
				if c.obs != nil {
					c.obs.pdExits.Inc()
				}
			}
			continue
		}
		if pd.wakeAt > now {
			continue // waking up
		}
		if want {
			pd.idleSince = -1
			continue
		}
		if pd.idleSince < 0 {
			pd.idleSince = now
		}
		if now-pd.idleSince < int64(c.cfg.PowerDown.IdleCycles) {
			continue
		}
		// Idle past the threshold: close any open rows, then power down.
		for bg := 0; bg < g.BankGroups; bg++ {
			for b := 0; b < g.BanksPerGroup; b++ {
				if _, open := c.ch.OpenRow(r, bg, b); !open {
					continue
				}
				cmd := dram.Command{Kind: dram.PRE, Rank: r, Group: bg, Bank: b}
				if c.ch.EarliestIssue(cmd, now) == now {
					c.issueCmd(cmd, now)
					c.traceCmd(now, cmd, "powerdown")
					c.stats.Precharges++
					return true
				}
				return false // constraint-bound; try again next cycle
			}
		}
		pd.down = true
		c.stats.PowerDownCycles++
		if c.obs != nil {
			c.obs.pdEntries.Inc()
		}
	}
	return false
}

// tryRefresh makes progress on pending refreshes: precharging open banks of
// the refreshing rank, then issuing REF. Returns true if it consumed the
// cycle's command slot.
func (c *Controller) tryRefresh(now int64) bool {
	g := c.cfg.DRAM.Geometry
	for r := range c.refPending {
		if !c.refPending[r] {
			continue
		}
		if c.pd[r].down || c.pd[r].wakeAt > now {
			continue // the power-down logic is waking the rank first
		}
		allClosed := true
		for bg := 0; bg < g.BankGroups; bg++ {
			for b := 0; b < g.BanksPerGroup; b++ {
				if _, open := c.ch.OpenRow(r, bg, b); !open {
					continue
				}
				allClosed = false
				cmd := dram.Command{Kind: dram.PRE, Rank: r, Group: bg, Bank: b}
				if c.ch.EarliestIssue(cmd, now) == now {
					c.issueCmd(cmd, now)
					c.traceCmd(now, cmd, "refresh-drain")
					c.stats.Precharges++
					return true
				}
			}
		}
		if allClosed {
			cmd := dram.Command{Kind: dram.REF, Rank: r}
			if c.ch.EarliestIssue(cmd, now) == now {
				c.issueCmd(cmd, now)
				c.traceCmd(now, cmd, "")
				c.stats.Refreshes++
				c.refPending[r] = false
				c.refDue[r] += int64(c.cfg.DRAM.Timing.REFI)
				return true
			}
		}
	}
	return false
}

// schedule runs FR-FCFS over the active queue and issues at most one
// command; it reports whether anything was issued.
func (c *Controller) schedule(now int64) bool {
	write := c.drainMode()
	if (write && len(c.wq) == 0) || (!write && len(c.rq) == 0) {
		return false
	}
	if c.schedNextVer == c.schedVer && now < c.schedNext {
		return false // no candidate can issue yet (see schedVer)
	}
	return c.issue(c.pick(write, now), write, now)
}

// drainMode applies the write-drain transitions and reports whether the
// write queue is the active one.
func (c *Controller) drainMode() bool {
	var write bool
	c.writeMode, write = c.drainState()
	return write
}

// drainState returns the write-drain mode after this cycle's transition
// (Section 4.6, Table 2 watermarks) and whether the write queue is then
// the active one. With frozen queue depths the mode settles after one
// transition.
func (c *Controller) drainState() (mode, write bool) {
	mode = c.writeMode
	if len(c.wq) >= c.cfg.DrainHigh {
		mode = true
	} else if mode && len(c.wq) <= c.cfg.DrainLow {
		mode = false
	}
	return mode, mode || (len(c.rq) == 0 && len(c.wq) > 0)
}

// choice is one cycle's scheduling decision: the command kind (a column
// command, PRE, or ACT) and the request it serves. A nil req issues
// nothing.
type choice struct {
	req  *Request
	kind dram.Kind
}

// pick chooses the cycle's command by FR-FCFS over the active queue,
// visiting each non-empty bank once. A visit collects, per class, the
// bank's oldest eligible row hit and its claimant: the class's oldest
// request claims the bank before its own eligibility is checked, so a
// younger conflict cannot close a row an older request still needs.
// Ranks in blockedRanks issue nothing and requests backing off
// (retryAt) are ineligible. Device timing is probed only afterwards, in
// age order, until a candidate is ready: one CAS or PRE/ACT probe per
// candidate bank at most.
//
// Demand reads outrank prefetches. Normally prefetch row hits may still
// slip in ahead of demand ACT/PRE work (they keep the streams timely),
// but once the oldest demand read has aged past demandEscalationAge,
// demand bank work preempts them - otherwise an endless supply of ready
// prefetch hits can starve the misses cores are actually blocked on.
// Writes form a single class. Within each step the oldest request wins.
func (c *Controller) pick(write bool, now int64) choice {
	q := &c.rqIdx
	col := dram.RD
	if write {
		q, col = &c.wqIdx, dram.WR
	}
	blocked := c.blockedRanks()
	hits, work := &c.hitCands, &c.workCands
	for k := range hits {
		hits[k], work[k] = hits[k][:0], work[k][:0]
	}
	var oldestDemand *Request
	examined := 0
	for b := q.nextBank(0); b >= 0; b = q.nextBank(b + 1) {
		lists := &q.lists[b]
		heads, n := q.heads(b)
		examined += n
		rep := heads[0]
		if rep == nil {
			rep = heads[1]
		} else if !write && (oldestDemand == nil || rep.seq < oldestDemand.seq) {
			oldestDemand = rep
		}
		if blocked>>rep.loc.Rank&1 != 0 {
			continue
		}
		row, open := c.ch.OpenRowAt(b)
		kind := dram.ACT
		if open {
			kind = dram.PRE
		}
		for k, h := range heads {
			if h == nil {
				continue
			}
			if !open || h.loc.Row != row {
				if h.retryAt <= now {
					work[k] = append(work[k], choice{h, kind})
				}
				if !open {
					continue
				}
			}
			for i, r := range lists[k] {
				if i > 0 {
					examined++
				}
				if r.loc.Row == row && r.retryAt <= now {
					hits[k] = append(hits[k], choice{r, col})
					break
				}
			}
		}
	}
	if c.obs != nil {
		c.obs.schedExamined.Add(int64(examined))
	}
	if d := c.oldestReady(hits[0], now); d.req != nil {
		return d
	}
	demandFirst := oldestDemand != nil && now-oldestDemand.Arrive > demandEscalationAge
	if demandFirst {
		if d := c.oldestReady(work[0], now); d.req != nil {
			return d
		}
	}
	if d := c.oldestReady(hits[1], now); d.req != nil {
		return d
	}
	if !demandFirst {
		if d := c.oldestReady(work[0], now); d.req != nil {
			return d
		}
	}
	return c.oldestReady(work[1], now)
}

// oldestReady probes cands oldest first and returns the first whose
// command can issue now (the zero choice if none can). It reorders cands.
func (c *Controller) oldestReady(cands []choice, now int64) choice {
	for len(cands) > 0 {
		o := 0
		for i := range cands {
			if cands[i].req.seq < cands[o].req.seq {
				o = i
			}
		}
		d := cands[o]
		if c.ch.EarliestIssue(c.bankCmd(d.req, d.kind, d.req.loc.Row), now) == now {
			return d
		}
		cands[o] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return choice{}
}

// issue carries out a scheduling decision, reporting whether it issued.
func (c *Controller) issue(d choice, write bool, now int64) bool {
	req := d.req
	if req == nil {
		return false
	}
	switch d.kind {
	case dram.RD, dram.WR:
		active := c.rq
		if write {
			active = c.wq
		}
		c.issueColumn(req, queuePos(active, req), write, now)
		return true
	}
	cmd := c.bankCmd(req, d.kind, req.loc.Row)
	c.issueCmd(cmd, now)
	c.traceCmd(now, cmd, "")
	if d.kind == dram.PRE {
		c.stats.Precharges++
	} else {
		c.stats.Activates++
	}
	return true
}

// bankCmd builds a kind command to req's bank: PRE and ACT as issued,
// RD and WR as the baseline-shaped readiness probe for row.
func (c *Controller) bankCmd(req *Request, kind dram.Kind, row int) dram.Command {
	cmd := dram.Command{Kind: kind, Rank: req.loc.Rank, Group: req.loc.Group, Bank: req.loc.Bank}
	switch kind {
	case dram.ACT:
		cmd.Row = row
	case dram.RD, dram.WR:
		cmd.Row, cmd.Beats = row, 8
	}
	return cmd
}

// probeCAS builds the baseline-shaped column command used for readiness
// checks. Extra codec latency can only relax the issue time (the data slot
// moves later), so a probe that is ready implies the coded command is too.
func (c *Controller) probeCAS(req *Request, write bool) dram.Command {
	kind := dram.RD
	if write {
		kind = dram.WR
	}
	return c.bankCmd(req, kind, req.loc.Row)
}

// lookahead implements Lookahead over the controller's live queue state.
type lookahead struct {
	c   *Controller
	now int64
}

// ColumnReadyWithin implements Lookahead: it counts queued reads and writes
// whose row is already open and whose constraints resolve within x cycles,
// including the command being scheduled (Section 5.1's rdyX comparators).
func (l lookahead) ColumnReadyWithin(x int) int {
	n := 0
	scan := func(reqs []*Request, write bool) {
		for _, req := range reqs {
			if req.retryAt > l.now {
				continue // backing off; cannot become ready in the window
			}
			row, open := l.c.ch.OpenRowAt(int(req.bank))
			if !open || row != req.loc.Row {
				continue
			}
			if l.c.ch.EarliestIssue(l.c.probeCAS(req, write), l.now) <= l.now+int64(x) {
				n++
			}
		}
	}
	scan(l.c.rq, false)
	scan(l.c.wq, true)
	return n
}

// epochTracker counts issued bursts toward the policy's next epoch
// boundary and remembers the cumulative stat totals at the last one, so
// each delivery is a cheap subtraction off counters the column path
// maintains anyway.
type epochTracker struct {
	obs    EpochObserver
	every  int64
	bursts int64      // bursts issued since the last boundary
	mark   EpochStats // cumulative totals at the last boundary
}

// epochTick advances the per-epoch feedback channel after one issued
// burst (success or failure alike) and delivers the epoch's stat deltas
// at each boundary. Policies without an EpochObserver cost one nil check
// here; TestEpochFeedbackZeroCostWhenDisabled pins the path at 0
// allocs/op in both cases.
func (c *Controller) epochTick(now int64) {
	if c.epoch.obs == nil {
		return
	}
	c.epoch.bursts++
	if c.epoch.bursts < c.epoch.every {
		return
	}
	c.epoch.bursts = 0
	s := c.stats
	cur := EpochStats{
		Bursts:    s.Reads + s.Writes,
		Zeros:     s.Zeros,
		CostUnits: s.CostUnits,
		Beats:     s.BurstBeats,
		Retries:   s.WriteRetries + s.ReadRetries + s.RetriesExhausted,
	}
	delta := EpochStats{
		Bursts:    cur.Bursts - c.epoch.mark.Bursts,
		Zeros:     cur.Zeros - c.epoch.mark.Zeros,
		CostUnits: cur.CostUnits - c.epoch.mark.CostUnits,
		Beats:     cur.Beats - c.epoch.mark.Beats,
		Retries:   cur.Retries - c.epoch.mark.Retries,
	}
	c.epoch.mark = cur
	if c.obs != nil {
		c.obs.policyEpochs.Inc()
	}
	c.epoch.obs.ObserveEpoch(now, delta)
}

// issueColumn runs the coding decision, issues the column command, moves
// the data, and records all statistics. idx is the request's position in
// the active queue.
//
// On a faulty link the transfer can come back NACKed (device write-CRC or
// CA parity via ALERT_n, or a controller-side read decode failure); the
// burst's bus time and energy are then sunk cost, the request stays queued
// in age order, and handleFailure schedules its replay.
func (c *Controller) issueColumn(req *Request, idx int, write bool, now int64) {
	var dataPtr *bitblock.Block
	if write {
		dataPtr = &req.Data
	}
	c.la = lookahead{c: c, now: now}
	codec := c.policy.Choose(write, dataPtr, &c.la)

	kind := dram.RD
	extraBeats := 0
	if write {
		kind = dram.WR
		extraBeats = c.cfg.Reliability.ExtraWriteBeats()
	}
	cmd := dram.Command{
		Kind: kind, Rank: req.loc.Rank, Group: req.loc.Group, Bank: req.loc.Bank,
		Row: req.loc.Row, Beats: codec.Beats() + extraBeats, ExtraCAS: codec.ExtraLatency(),
	}
	info := c.issueCmd(cmd, now)

	blk := &c.colBlk
	if write {
		*blk = req.Data
	} else {
		*blk = c.mem.ReadLine(req.Line)
	}
	res := c.phy.Transmit(codec, blk, write)
	// The codec annotation is built lazily: the Sprintf must not run (or
	// allocate) on untraced runs.
	if c.cfg.Trace != nil {
		c.traceCmd(now, cmd, fmt.Sprintf("codec=%s zeros=%d", codec.Name(), res.Zeros))
	} else if c.obs != nil {
		c.obs.traceIssue(now, cmd)
	}
	if c.obs != nil {
		c.obs.traceBurst(info.Window, codec.Name(), res.Beats, res.Zeros)
	}

	c.stats.Zeros += int64(res.Zeros)
	c.stats.CostUnits += int64(res.CostUnits)
	c.stats.BurstBeats += int64(res.Beats)
	c.stats.BusyCycles += info.Window.Cycles()
	c.stats.CodecBursts[codec.Name()]++
	c.stats.CRCBeats += int64(extraBeats)
	c.stats.BitErrors += int64(res.BitErrors)
	if res.Silent {
		c.stats.SilentErrors++
	}
	if info.PrevEnd >= 0 {
		gap := info.Window.Start - info.PrevEnd
		c.stats.GapHist.Add(gap)
		c.stats.GapPairs++
		if gap == 0 {
			c.stats.BackToBack++
		}
		slack := info.Window.Start - (info.PrevEnd + info.Anchor)
		if slack < 0 {
			slack = 0
		}
		c.stats.SlackHist.Add(slack)
	}
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
		if req.Demand {
			c.stats.DemandReads++
		}
	}
	c.activeBurst = append(c.activeBurst, info.Window)

	if fb, ok := c.policy.(ReliabilityFeedback); ok {
		fb.RecordBurst(codec.Name(), write, res.Failed())
	}

	if res.Failed() {
		c.handleFailure(req, idx, write, &res, info.Window.End)
		c.epochTick(now)
		return
	}
	c.consecFail = 0
	c.inStorm = false

	if write {
		// The device accepted the transfer; commit what actually arrived
		// (silent corruption is stored, exactly as in hardware).
		c.mem.WriteLine(req.Line, res.Arrived)
		c.stats.WritesCompleted++
		c.dequeueWrite(idx)
		c.fireDone(req, now)
	} else {
		c.dequeueRead(idx)
		c.inflight = append(c.inflight, inflightRead{req: req, done: info.Window.End})
	}
	c.epochTick(now)
}

// handleFailure processes a NACKed transfer: it classifies the failure,
// charges the wasted burst, and either schedules a replay (the request
// stays queued in age order with a capped exponential backoff, gated by
// retryAt) or abandons the request once its retry budget is spent. A run of
// consecutive channel-wide failures trips the retry-storm guard, which
// quadruples backoff until a transfer succeeds.
func (c *Controller) handleFailure(req *Request, idx int, write bool, res *PhyResult, burstEnd int64) {
	detectAt := burstEnd
	switch {
	case res.CAError:
		c.stats.CAParityAlerts++
		detectAt += int64(c.cfg.Reliability.CAAlertCycles)
	case res.CRCError:
		c.stats.WriteCRCAlerts++
		detectAt += int64(c.cfg.Reliability.CRCAlertCycles)
	default: // read decode failure: the controller itself rejects the burst
		c.stats.ReadDecodeFailures++
	}
	c.stats.RetryBeats += int64(res.Beats)
	c.stats.RetryCostUnits += int64(res.CostUnits)

	c.consecFail++
	if !c.inStorm && c.consecFail >= c.cfg.Retry.stormThreshold() {
		c.inStorm = true
		c.stats.RetryStorms++
	}

	if req.retries >= c.cfg.Retry.maxRetries() {
		// Budget spent: abandon rather than retry forever. The request
		// completes so the core is not wedged; the data is lost (stale
		// memory for writes), which RetriesExhausted makes visible.
		c.stats.RetriesExhausted++
		if c.obs != nil {
			c.obs.retryExhausted.Inc()
		}
		if write {
			c.stats.WritesCompleted++
			c.dequeueWrite(idx)
		} else {
			c.stats.ReadsCompleted++
			c.stats.ReadLatencySum += c.now - req.Arrive
			if req.Demand {
				c.stats.DemandLatencySum += c.now - req.Arrive
				c.stats.DemandReadsCompleted++
			}
			c.dequeueRead(idx)
		}
		c.fireDone(req, c.now)
		return
	}

	backoff := int64(c.cfg.Retry.backoffBase()) << req.retries
	if limit := int64(c.cfg.Retry.backoffMax()); backoff > limit {
		backoff = limit
	}
	if c.inStorm {
		backoff *= 4
	}
	req.retries++
	req.retryAt = detectAt + backoff
	if c.obs != nil {
		c.obs.retryReplays.Inc()
	}
	if write {
		c.stats.WriteRetries++
	} else {
		c.stats.ReadRetries++
	}
}

// classify attributes the cycle to busy / idle-with-pending / idle-empty
// for the Figure 5 breakdown.
func (c *Controller) classify(now int64) {
	busy := false
	kept := c.activeBurst[:0]
	for _, w := range c.activeBurst {
		if w.End <= now {
			continue
		}
		kept = append(kept, w)
		if w.Start <= now {
			busy = true
		}
	}
	c.activeBurst = kept
	if c.obs != nil {
		if busy {
			c.obs.busyAt(now)
		} else {
			c.obs.idleAt(now)
		}
	}
	switch {
	case busy:
		// counted via BurstBeats/BusyCycles already; nothing extra here
	case len(c.rq)+len(c.wq) > 0:
		c.stats.IdlePendingCycles++
	default:
		c.stats.IdleEmptyCycles++
	}
}

// removeAt deletes element i preserving order (FCFS age order matters).
func removeAt(reqs []*Request, i int) []*Request {
	copy(reqs[i:], reqs[i+1:])
	return reqs[:len(reqs)-1]
}
