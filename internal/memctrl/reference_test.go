package memctrl

import (
	"testing"

	"mil/internal/code"
	"mil/internal/dram"
	"mil/internal/obs"
	"mil/internal/sched"
)

// This file keeps the queue-walking FR-FCFS scheduler that the per-bank
// index (bankQueues) replaced, as the oracle the indexed scheduler must
// match command for command: one oldest-first ready-hit scan, up to
// three first-come-first-served bank-work walks in the escalation
// ladder's order, and the full-queue wake bound.

// Candidate filters for the reference bank-work walks.
const (
	keepAll = iota
	keepDemand
	keepPrefetch
)

func skipReq(keep int, req *Request) bool {
	return (keep == keepDemand && !req.Demand) || (keep == keepPrefetch && req.Demand)
}

// refPick is the reference scheduling decision over the active queue.
func refPick(c *Controller, write bool, now int64) choice {
	active, col := c.rq, dram.RD
	if write {
		active, col = c.wq, dram.WR
	}
	blocked := c.blockedRanks()
	demandHit, prefetchHit := refReadyHits(c, active, write, now, blocked)
	if write {
		// Writes form a single class: the oldest ready hit of either.
		if hit := oldestOf(demandHit, prefetchHit); hit >= 0 {
			return choice{active[hit], col}
		}
		return refFCFS(c, active, now, blocked, keepAll)
	}
	demandFirst := false
	for _, r := range active {
		if r.Demand {
			demandFirst = now-r.Arrive > demandEscalationAge
			break
		}
	}
	if demandHit >= 0 {
		return choice{active[demandHit], col}
	}
	if demandFirst {
		if d := refFCFS(c, active, now, blocked, keepDemand); d.req != nil {
			return d
		}
	}
	if prefetchHit >= 0 {
		return choice{active[prefetchHit], col}
	}
	if !demandFirst {
		if d := refFCFS(c, active, now, blocked, keepDemand); d.req != nil {
			return d
		}
	}
	return refFCFS(c, active, now, blocked, keepPrefetch)
}

// refReadyHits scans active oldest-first for requests whose column
// command could issue right now, returning the oldest such demand request
// and the oldest such prefetch older than it, -1 for none.
func refReadyHits(c *Controller, active []*Request, write bool, now int64, blocked uint32) (demand, prefetch int) {
	prefetch = -1
	for i, req := range active {
		if prefetch >= 0 && !req.Demand {
			continue
		}
		if req.retryAt > now || blocked>>req.loc.Rank&1 != 0 {
			continue
		}
		if row, open := c.ch.OpenRowAt(int(req.bank)); !open || row != req.loc.Row {
			continue
		}
		if c.ch.EarliestIssue(c.probeCAS(req, write), now) != now {
			continue
		}
		if req.Demand {
			return i, prefetch
		}
		prefetch = i
	}
	return -1, prefetch
}

// oldestOf returns the smaller of two queue indices, ignoring -1.
func oldestOf(a, b int) int {
	if a < 0 || (b >= 0 && b < a) {
		return b
	}
	return a
}

// refFCFS walks oldest-first choosing the first ready ACT or PRE a
// request needs, at most one per bank: a bank's first request claims it
// before its own eligibility is checked.
func refFCFS(c *Controller, active []*Request, now int64, blocked uint32, keep int) choice {
	claimed := make(map[int32]bool)
	for _, req := range active {
		if skipReq(keep, req) || claimed[req.bank] {
			continue
		}
		claimed[req.bank] = true
		if req.retryAt > now || blocked>>req.loc.Rank&1 != 0 {
			continue
		}
		row, open := c.ch.OpenRowAt(int(req.bank))
		switch {
		case open && row == req.loc.Row:
		case open:
			cmd := dram.Command{Kind: dram.PRE, Rank: req.loc.Rank, Group: req.loc.Group, Bank: req.loc.Bank}
			if c.ch.EarliestIssue(cmd, now) == now {
				return choice{req, dram.PRE}
			}
		default:
			cmd := dram.Command{Kind: dram.ACT, Rank: req.loc.Rank, Group: req.loc.Group, Bank: req.loc.Bank, Row: req.loc.Row}
			if c.ch.EarliestIssue(cmd, now) == now {
				return choice{req, dram.ACT}
			}
		}
	}
	return choice{}
}

// refNextWake is the reference wake bound: every term, with the scheduler
// term walking the whole active queue.
func refNextWake(c *Controller) int64 {
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
		w = min(w, refPowerDownWake(c))
	}
	w = min(w, c.refreshWake())
	w = min(w, refScheduleWake(c))
	if w <= c.now {
		w = c.now + 1
	}
	return w
}

// refPowerDownWake is powerDownWake with the ranks' queued work found by
// walking both queues.
func refPowerDownWake(c *Controller) int64 {
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
		switch {
		case pd.down:
			if want {
				return c.now + 1
			}
		case pd.wakeAt > c.now:
			w = min(w, pd.wakeAt)
		case want:
		case pd.idleSince < 0:
			return c.now + 1
		case pd.idleSince+int64(c.cfg.PowerDown.IdleCycles) > c.now:
			w = min(w, pd.idleSince+int64(c.cfg.PowerDown.IdleCycles))
		default:
			return c.now + 1
		}
	}
	return w
}

// refScheduleWake bounds the scheduler over every queued candidate: each
// row hit's column command and each pass's per-bank claimant's PRE/ACT.
func refScheduleWake(c *Controller) int64 {
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
	for _, req := range active {
		row, open := c.ch.OpenRowAt(int(req.bank))
		if !open || row != req.loc.Row {
			continue
		}
		if from, ok := refEligible(c, req); ok {
			w = min(w, c.ch.EarliestIssue(c.probeCAS(req, write), from))
		}
	}
	if write {
		return min(w, refFCFSWake(c, active, keepAll))
	}
	return min(w, refFCFSWake(c, active, keepDemand), refFCFSWake(c, active, keepPrefetch))
}

// refEligible returns the first cycle > now the request may be scheduled,
// or ok=false when its rank is frozen for the whole window.
func refEligible(c *Controller, req *Request) (int64, bool) {
	pd := &c.pd[req.loc.Rank]
	if c.refPending[req.loc.Rank] || pd.down {
		return 0, false
	}
	return max(c.now+1, req.retryAt, pd.wakeAt), true
}

// refFCFSWake bounds the earliest PRE/ACT issue among one pass's claimants.
func refFCFSWake(c *Controller, active []*Request, keep int) int64 {
	claimed := make(map[int32]bool)
	w := sched.Never
	for _, req := range active {
		if skipReq(keep, req) || claimed[req.bank] {
			continue
		}
		claimed[req.bank] = true
		from, ok := refEligible(c, req)
		if !ok {
			continue
		}
		row, open := c.ch.OpenRowAt(int(req.bank))
		switch {
		case open && row == req.loc.Row:
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

// Fuzz program opcodes: each op byte is followed by its operand bytes.
const (
	opRead    = iota // bank, row, demand: enqueue a read
	opWrite          // bank, row: enqueue a write
	opPromote        // pick: promote a queued prefetch
	opBackoff        // pick, delay: set a queued request's retryAt
	opRank           // rank, kind, delay: refresh pending / power-down / wake-up
	opStep           // delay: advance time, then compare and issue
	numOps
)

// schedProgram interprets fuzz bytes as a schedule of queue and rank
// changes, comparing the indexed scheduler with the reference after each
// time step and then issuing its choice (so device timing state evolves
// through real commands). A drain phase follows the program.
func schedProgram(t *testing.T, data []byte) {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	cfg := DefaultConfig(dram.DDR4_3200())
	if next()&1 == 1 {
		cfg.PowerDown = PowerDownConfig{Enable: true, IdleCycles: 12, XP: 3}
	}
	c, err := NewController(cfg, NewOverlayMemory(nil), FixedPolicy{Codec: code.Raw{}}, &PODPhy{})
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.DRAM.Geometry
	banks := g.Ranks * g.Banks()
	var line int64
	enqueue := func(write bool) {
		b, row := next()%banks, next()%4
		req := &Request{Line: line, Write: write, Demand: next()&1 == 1, mapped: true}
		line++
		req.loc = Location{
			Rank: b / g.Banks(), Group: b % g.Banks() / g.BanksPerGroup,
			Bank: b % g.BanksPerGroup, Row: row,
		}
		c.Enqueue(req, c.now)
	}
	pickQueued := func() *Request {
		n := len(c.rq) + len(c.wq)
		if n == 0 {
			return nil
		}
		i := next() % n
		if i < len(c.rq) {
			return c.rq[i]
		}
		return c.wq[i-len(c.rq)]
	}
	step := func(delay int) {
		now := c.now + 1 + int64(delay%8)
		c.now = now
		c.completeReads(now)
		write := c.drainMode()
		got, want := c.pick(write, now), refPick(c, write, now)
		if c.schedNextVer == c.schedVer && now < c.schedNext && want.req != nil {
			t.Fatalf("cycle %d: schedule would skip before %d, but the reference issues %v for %+v",
				now, c.schedNext, want.kind, want.req)
		}
		if got != want {
			t.Fatalf("cycle %d (write mode %v): picked %v for %+v, reference %v for %+v",
				now, write, got.kind, got.req, want.kind, want.req)
		}
		if len(c.rq) > 0 || len(c.wq) > 0 {
			c.issue(got, write, now)
		}
		if got, want := c.NextWake(), refNextWake(c); got != want {
			t.Fatalf("cycle %d: NextWake %d, reference %d", now, got, want)
		}
		checkIndex(t, c)
	}
	for pos < len(data) {
		switch next() % numOps {
		case opRead:
			enqueue(false)
		case opWrite:
			enqueue(true)
		case opPromote:
			if req := pickQueued(); req != nil && !req.Write {
				c.Promote(req)
			}
		case opBackoff:
			if req := pickQueued(); req != nil {
				req.retryAt = c.now + int64(next()%64)
			} else {
				next()
			}
			c.schedVer++ // as handleFailure's issue would
		case opRank:
			r, kind, delay := next()%g.Ranks, next()%4, int64(next()%32)
			switch kind {
			case 0:
				c.refPending[r] = !c.refPending[r]
			case 1:
				c.pd[r].down = !c.pd[r].down
			case 2:
				c.pd[r].wakeAt = c.now + delay
			case 3:
				c.pd[r].idleSince = c.now - delay
			}
			c.schedVer++ // as Tick's refresh and power-down steps would
		case opStep:
			step(next())
		}
	}
	// Drain: ranks released, time keeps moving until the queues empty.
	clear(c.refPending)
	for r := range c.pd {
		c.pd[r].down = false
	}
	c.schedVer++
	for i := 0; i < 400 && (len(c.rq) > 0 || len(c.wq) > 0); i++ {
		step(i)
	}
}

// progBuilder encodes fuzz programs for the seed corpus.
type progBuilder []byte

func (p progBuilder) read(bank, row int, demand bool) progBuilder {
	d := 0
	if demand {
		d = 1
	}
	return append(p, opRead, byte(bank), byte(row), byte(d))
}

func (p progBuilder) write(bank, row int) progBuilder {
	return append(p, opWrite, byte(bank), byte(row), 0)
}

func (p progBuilder) steps(n, delay int) progBuilder {
	for i := 0; i < n; i++ {
		p = append(p, opStep, byte(delay))
	}
	return p
}

// scheduleSeeds are the named corpus entries: a drained queue, a full
// 64-entry single-bank queue, a retry-backoff queue, and a write drain.
func scheduleSeeds() map[string][]byte {
	seeds := map[string][]byte{}
	seeds["drained"] = progBuilder{0}.read(3, 1, true).steps(20, 0)

	full := progBuilder{0}
	for i := 0; i < 64; i++ {
		full = full.read(5, i%3, i%4 != 0)
	}
	seeds["full single bank"] = full.steps(40, 1)

	backoff := progBuilder{0}
	for i := 0; i < 12; i++ {
		backoff = backoff.read(i, i%2, i%3 == 0)
		backoff = append(backoff, opBackoff, byte(i), byte(7*i))
	}
	backoff = append(backoff, opRank, 1, 0, 0, opRank, 0, 2, 9)
	seeds["retry backoff"] = backoff.steps(30, 2)

	drain := progBuilder{1}
	for i := 0; i < 62; i++ {
		drain = drain.write(i%16, i%4)
		if i%8 == 0 {
			drain = drain.read(i%16, 1, false)
			drain = append(drain, opPromote, byte(i))
		}
	}
	seeds["write drain"] = drain.steps(60, 0)
	return seeds
}

// FuzzScheduleMatchesReference: the bank-indexed scheduler issues the
// reference scheduler's command for the same request, and its wake bound
// equals the reference's full-queue bound, over fuzzed queues (bank, row,
// class, writes, retry backoff), blocked ranks, promotions, and the
// device timing state the issued commands leave.
func FuzzScheduleMatchesReference(f *testing.F) {
	for _, seed := range scheduleSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		schedProgram(t, data)
	})
}

// TestSchedulerExaminesOnlyClaimants: with every row closed, a scheduling
// pass and a wake computation each read one request per non-empty bank
// (its claimant), however deep the banks' queues are.
func TestSchedulerExaminesOnlyClaimants(t *testing.T) {
	reg := obs.NewRegistry()
	c := testController(t)
	c.SetObs(&obs.Obs{Metrics: reg})
	g := c.cfg.DRAM.Geometry
	const perBank, busyBanks = 6, 5
	for k := 0; k < perBank; k++ {
		for b := 0; b < busyBanks; b++ {
			req := &Request{Line: int64(k*busyBanks + b), Demand: true, mapped: true}
			req.loc = Location{Rank: b / g.Banks(), Group: b % g.Banks() / g.BanksPerGroup, Bank: b % g.BanksPerGroup, Row: k}
			if !c.Enqueue(req, 0) {
				t.Fatal("read refused")
			}
			req.retryAt = 50 // every claimant backs off: no command, no early wake exit
		}
	}
	examined := reg.Counter("memctrl_sched_examined_total")
	c.now = 1
	if c.schedule(1) {
		t.Fatal("a backing-off queue issued a command")
	}
	if got := examined.Value(); got != busyBanks {
		t.Errorf("schedule examined %d requests, want %d (one per non-empty bank)", got, busyBanks)
	}
	wake := c.NextWake()
	if got := examined.Value(); got != 2*busyBanks {
		t.Errorf("NextWake examined %d requests, want %d (one per non-empty bank)", got-busyBanks, busyBanks)
	}
	if wake != 50 {
		t.Errorf("NextWake = %d, want the backoff expiry 50", wake)
	}
	if want := refNextWake(c); wake != want {
		t.Errorf("NextWake = %d, reference %d", wake, want)
	}
}
