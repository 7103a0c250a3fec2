package memctrl

import (
	"fmt"
	"sort"

	"mil/internal/bitblock"
	"mil/internal/dram"
	"mil/internal/snap"
)

// This file serializes the controller-side state for checkpoint/resume.
// Request completion callbacks (OnDone) are closures and cannot cross a
// snapshot; each request records whether one was attached, and the sim
// layer re-links the callbacks after Restore via EachRequest +
// Request.NeedsOnDone.

// Snapshot serializes the bucket counts (edges are configuration).
func (h *Histogram) Snapshot(w *snap.Writer) { w.I64s(h.Counts) }

// Restore implements snap.Snapshotter.
func (h *Histogram) Restore(r *snap.Reader) error {
	counts := r.I64s()
	if err := r.Err(); err != nil {
		return err
	}
	if len(counts) != len(h.Counts) {
		return fmt.Errorf("memctrl: snapshot histogram has %d buckets, config has %d", len(counts), len(h.Counts))
	}
	copy(h.Counts, counts)
	return nil
}

// Snapshot serializes every counter, the codec map in sorted-name order,
// and both histograms.
func (s *Stats) Snapshot(w *snap.Writer) {
	for _, v := range s.fields() {
		w.I64(*v)
	}
	names := make([]string, 0, len(s.CodecBursts))
	for k := range s.CodecBursts {
		names = append(names, k)
	}
	sort.Strings(names)
	w.Len(len(names))
	for _, k := range names {
		w.String(k)
		w.I64(s.CodecBursts[k])
	}
	s.GapHist.Snapshot(w)
	s.SlackHist.Snapshot(w)
}

// Restore implements snap.Snapshotter.
func (s *Stats) Restore(r *snap.Reader) error {
	for _, v := range s.fields() {
		*v = r.I64()
	}
	n := r.Len()
	s.CodecBursts = make(map[string]int64, n)
	for i := 0; i < n; i++ {
		k := r.String()
		s.CodecBursts[k] = r.I64()
	}
	if err := s.GapHist.Restore(r); err != nil {
		return err
	}
	if err := s.SlackHist.Restore(r); err != nil {
		return err
	}
	return r.Err()
}

// fields lists every plain counter in declaration order, so Snapshot,
// Restore, and the struct definition cannot drift apart silently.
func (s *Stats) fields() []*int64 {
	return []*int64{
		&s.Reads, &s.Writes, &s.Activates, &s.Precharges, &s.Refreshes, &s.Forwards,
		&s.RowHits, &s.RowMisses,
		&s.Zeros, &s.CostUnits, &s.BurstBeats, &s.BusyCycles,
		&s.IdlePendingCycles, &s.IdleEmptyCycles, &s.Ticks,
		&s.ReadLatencySum, &s.ReadsCompleted,
		&s.DemandReads, &s.DemandLatencySum, &s.DemandReadsCompleted,
		&s.RQOccupancySum, &s.WQOccupancySum,
		&s.PowerDownCycles, &s.PowerDownExits,
		&s.BackToBack, &s.GapPairs,
		&s.WritesCompleted, &s.WriteCRCAlerts, &s.CAParityAlerts, &s.ReadDecodeFailures,
		&s.WriteRetries, &s.ReadRetries, &s.RetriesExhausted, &s.RetryStorms,
		&s.SilentErrors, &s.BitErrors, &s.RetryBeats, &s.RetryCostUnits, &s.CRCBeats,
	}
}

// Snapshot serializes the write overlay in sorted-line order (the
// generator is configuration).
func (m *OverlayMemory) Snapshot(w *snap.Writer) {
	lines := make([]int64, 0, len(m.written))
	for l := range m.written {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	w.Len(len(lines))
	for _, l := range lines {
		blk := m.written[l]
		w.I64(l)
		w.Bytes64((*[64]byte)(&blk))
	}
}

// Restore implements snap.Snapshotter.
func (m *OverlayMemory) Restore(r *snap.Reader) error {
	n := r.Len()
	m.written = make(map[int64]bitblock.Block, n)
	for i := 0; i < n; i++ {
		l := r.I64()
		var blk bitblock.Block
		r.Bytes64((*[64]byte)(&blk))
		m.written[l] = blk
	}
	return r.Err()
}

// NeedsOnDone reports whether this restored request had a completion
// callback at snapshot time that has not been re-linked yet. Setting
// OnDone clears the obligation implicitly; the sim layer checks the flag
// right after Restore.
func (r *Request) NeedsOnDone() bool { return r.needDone && r.OnDone == nil }

// SnapRequest serializes one request (minus its callback). It is exported
// for the sim layer, which holds not-yet-enqueued requests of its own.
func SnapRequest(w *snap.Writer, req *Request) {
	w.I64(req.Line)
	w.Bool(req.Write)
	w.Bytes64((*[64]byte)(&req.Data))
	w.I64(req.Arrive)
	w.Int(req.Stream)
	w.Bool(req.Demand)
	w.Bool(req.OnDone != nil)
	w.Int(req.loc.Channel)
	w.Int(req.loc.Rank)
	w.Int(req.loc.Group)
	w.Int(req.loc.Bank)
	w.Int(req.loc.Row)
	w.Int(req.loc.Col)
	w.Bool(req.mapped)
	w.Int(req.retries)
	w.I64(req.retryAt)
}

// RestoreRequest decodes one request, marking it for callback re-linking
// when one was attached at snapshot time.
func RestoreRequest(r *snap.Reader) *Request {
	req := &Request{}
	req.Line = r.I64()
	req.Write = r.Bool()
	r.Bytes64((*[64]byte)(&req.Data))
	req.Arrive = r.I64()
	req.Stream = r.Int()
	req.Demand = r.Bool()
	req.needDone = r.Bool()
	req.loc.Channel = r.Int()
	req.loc.Rank = r.Int()
	req.loc.Group = r.Int()
	req.loc.Bank = r.Int()
	req.loc.Row = r.Int()
	req.loc.Col = r.Int()
	req.mapped = r.Bool()
	req.retries = r.Int()
	req.retryAt = r.I64()
	return req
}

// snapBusState packs the 128 wire levels into two words.
func snapBusState(w *snap.Writer, s *bitblock.BusState) {
	for half := 0; half < 2; half++ {
		var word uint64
		for b := 0; b < 64; b++ {
			if s.Pin(half*64 + b) {
				word |= 1 << b
			}
		}
		w.U64(word)
	}
}

// restoreBusState unpacks the wire levels.
func restoreBusState(r *snap.Reader, s *bitblock.BusState) {
	for half := 0; half < 2; half++ {
		word := r.U64()
		for b := 0; b < 64; b++ {
			s.SetPin(half*64+b, word>>b&1 == 1)
		}
	}
}

// snapLink serializes a link's mutable state: the injector PRNG position
// and counters (the RAS feature flags are configuration).
func snapLink(w *snap.Writer, l *LinkConfig) {
	w.Bool(l.Inject != nil)
	if l.Inject != nil {
		l.Inject.Snapshot(w)
	}
}

func restoreLink(r *snap.Reader, l *LinkConfig) error {
	had := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if had != (l.Inject != nil) {
		return fmt.Errorf("memctrl: snapshot injector presence %v, config says %v", had, l.Inject != nil)
	}
	if l.Inject != nil {
		return l.Inject.Restore(r)
	}
	return nil
}

// Snapshot implements snap.Snapshotter (only the injector stream is
// mutable on a POD link; scratch is per-call).
func (p *PODPhy) Snapshot(w *snap.Writer) { snapLink(w, &p.Link) }

// Restore implements snap.Snapshotter.
func (p *PODPhy) Restore(r *snap.Reader) error { return restoreLink(r, &p.Link) }

// Snapshot implements snap.Snapshotter: injector stream plus both wire
// states (tx and rx can diverge transiently after an error).
func (p *TransitionPhy) Snapshot(w *snap.Writer) {
	snapLink(w, &p.Link)
	snapBusState(w, &p.txState)
	snapBusState(w, &p.rxState)
}

// Restore implements snap.Snapshotter.
func (p *TransitionPhy) Restore(r *snap.Reader) error {
	if err := restoreLink(r, &p.Link); err != nil {
		return err
	}
	restoreBusState(r, &p.txState)
	restoreBusState(r, &p.rxState)
	return r.Err()
}

// Snapshot implements snap.Snapshotter.
func (p *BIWirePhy) Snapshot(w *snap.Writer) {
	snapLink(w, &p.Link)
	snapBusState(w, &p.state)
}

// Restore implements snap.Snapshotter.
func (p *BIWirePhy) Restore(r *snap.Reader) error {
	if err := restoreLink(r, &p.Link); err != nil {
		return err
	}
	restoreBusState(r, &p.state)
	return r.Err()
}

// Snapshot serializes one controller: queues and in-flight transfers (each
// request appears exactly once across rq/wq/inflight/deferred), the
// refresh and power-down machines, scheduler mode, statistics, the
// scheduler-term cache, the device timing state, and the phy. The state
// derived from the queues (the
// prefetch count, the queued flags, the bank indices, the per-bank queue
// index with its age stamps, the per-rank queued counts) is excluded:
// Restore rebuilds it.
func (c *Controller) Snapshot(w *snap.Writer) {
	snapQueue := func(reqs []*Request) {
		w.Len(len(reqs))
		for _, req := range reqs {
			SnapRequest(w, req)
		}
	}
	snapQueue(c.rq)
	snapQueue(c.wq)
	w.Bool(c.writeMode)
	w.I64s(c.refDue)
	w.Len(len(c.refPending))
	for _, p := range c.refPending {
		w.Bool(p)
	}
	w.Len(len(c.pd))
	for i := range c.pd {
		w.Bool(c.pd[i].down)
		w.I64(c.pd[i].idleSince)
		w.I64(c.pd[i].wakeAt)
	}
	snapFlights := func(fs []inflightRead) {
		w.Len(len(fs))
		for _, f := range fs {
			SnapRequest(w, f.req)
			w.I64(f.done)
		}
	}
	snapFlights(c.inflight)
	snapFlights(c.deferred)
	w.Len(len(c.activeBurst))
	for _, b := range c.activeBurst {
		w.I64(b.Start)
		w.I64(b.End)
	}
	c.stats.Snapshot(w)
	w.I64(c.now)
	w.Bool(c.started)
	// The scheduler-term cache decides which cycles run pick and
	// scheduleWake, so the work counters of a resumed run match only if
	// it crosses the checkpoint too.
	w.Bool(c.schedNextVer == c.schedVer)
	w.I64(c.schedNext)
	w.Bool(c.schedNextExact)
	w.Int(c.consecFail)
	w.Bool(c.inStorm)
	// Per-epoch feedback progress, present exactly when the policy
	// observes epochs. Presence is config-deterministic (it follows from
	// the scheme), so checkpoints of every non-observing scheme keep
	// their pre-epoch byte layout unchanged.
	if c.epoch.obs != nil {
		w.I64(c.epoch.bursts)
		w.I64(c.epoch.mark.Bursts)
		w.I64(c.epoch.mark.Zeros)
		w.I64(c.epoch.mark.CostUnits)
		w.I64(c.epoch.mark.Beats)
		w.I64(c.epoch.mark.Retries)
	}
	// The idle-window tracker is observability state, but it is mutable
	// per-cycle state all the same: an idle run open across the checkpoint
	// must not be split in two, or the resumed run's histogram diverges.
	// The fields are written unconditionally (zero when obs is detached) so
	// the format does not depend on the observability configuration.
	if c.obs != nil {
		w.Bool(c.obs.inIdle)
		w.I64(c.obs.idleStart)
	} else {
		w.Bool(false)
		w.I64(0)
	}
	c.ch.Snapshot(w)
	if s, ok := c.phy.(snap.Snapshotter); ok {
		w.Bool(true)
		s.Snapshot(w)
	} else {
		w.Bool(false)
	}
}

// Restore implements snap.Snapshotter. Requests come back without their
// completion callbacks; see EachRequest.
func (c *Controller) Restore(r *snap.Reader) error {
	restoreQueue := func() []*Request {
		n := r.Len()
		if n == 0 {
			return nil
		}
		reqs := make([]*Request, 0, n)
		for i := 0; i < n; i++ {
			reqs = append(reqs, RestoreRequest(r))
		}
		return reqs
	}
	c.rq = restoreQueue()
	c.wq = restoreQueue()
	// The queued flags, bank indices, age stamps, bank index, per-rank
	// counts, and prefetch count are derived from the queues.
	c.prefetches, c.seq = 0, 0
	c.schedVer++
	clear(c.rankQueued)
	c.rqIdx.clear()
	c.wqIdx.clear()
	for _, req := range c.rq {
		c.admit(req)
		req.queued = true
		if !req.Demand {
			c.prefetches++
		}
		c.rqIdx.push(req, readClass(req))
	}
	for _, req := range c.wq {
		c.admit(req)
		c.wqIdx.push(req, 0)
	}
	c.writeMode = r.Bool()
	refDue := r.I64s()
	nrp := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if len(refDue) != len(c.refDue) || nrp != len(c.refPending) {
		return fmt.Errorf("memctrl: snapshot rank count mismatch")
	}
	copy(c.refDue, refDue)
	for i := range c.refPending {
		c.refPending[i] = r.Bool()
	}
	npd := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if npd != len(c.pd) {
		return fmt.Errorf("memctrl: snapshot power-down rank count mismatch")
	}
	for i := range c.pd {
		c.pd[i].down = r.Bool()
		c.pd[i].idleSince = r.I64()
		c.pd[i].wakeAt = r.I64()
	}
	restoreFlights := func() []inflightRead {
		n := r.Len()
		if n == 0 {
			return nil
		}
		fs := make([]inflightRead, 0, n)
		for i := 0; i < n; i++ {
			req := RestoreRequest(r)
			fs = append(fs, inflightRead{req: req, done: r.I64()})
		}
		return fs
	}
	c.inflight = restoreFlights()
	c.deferred = restoreFlights()
	nb := r.Len()
	c.activeBurst = c.activeBurst[:0]
	for i := 0; i < nb; i++ {
		c.activeBurst = append(c.activeBurst, dram.BurstWindow{Start: r.I64(), End: r.I64()})
	}
	if err := c.stats.Restore(r); err != nil {
		return err
	}
	c.now = r.I64()
	c.started = r.Bool()
	valid := r.Bool()
	c.schedNext, c.schedNextExact = r.I64(), r.Bool()
	c.schedNextVer = c.schedVer
	if !valid {
		c.schedNextVer--
	}
	c.consecFail = r.Int()
	c.inStorm = r.Bool()
	if c.epoch.obs != nil {
		c.epoch.bursts = r.I64()
		c.epoch.mark.Bursts = r.I64()
		c.epoch.mark.Zeros = r.I64()
		c.epoch.mark.CostUnits = r.I64()
		c.epoch.mark.Beats = r.I64()
		c.epoch.mark.Retries = r.I64()
	}
	inIdle, idleStart := r.Bool(), r.I64()
	if c.obs != nil {
		c.obs.inIdle, c.obs.idleStart = inIdle, idleStart
	}
	if err := c.ch.Restore(r); err != nil {
		return err
	}
	hadPhy := r.Bool()
	s, ok := c.phy.(snap.Snapshotter)
	if err := r.Err(); err != nil {
		return err
	}
	if hadPhy != ok {
		return fmt.Errorf("memctrl: snapshot phy presence %v, config says %v", hadPhy, ok)
	}
	if ok {
		if err := s.Restore(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// EachRequest visits every live request in this controller, in a fixed
// order (read queue, write queue, in-flight reads, deferred completions).
// The sim layer uses it after Restore to re-link completion callbacks.
func (c *Controller) EachRequest(f func(*Request)) {
	for _, req := range c.rq {
		f(req)
	}
	for _, req := range c.wq {
		f(req)
	}
	for _, fl := range c.inflight {
		f(fl.req)
	}
	for _, fl := range c.deferred {
		f(fl.req)
	}
}

// Snapshot serializes every channel (the mapper is configuration).
func (s *System) Snapshot(w *snap.Writer) {
	for _, c := range s.ctrls {
		c.Snapshot(w)
	}
}

// Restore implements snap.Snapshotter.
func (s *System) Restore(r *snap.Reader) error {
	for _, c := range s.ctrls {
		if err := c.Restore(r); err != nil {
			return err
		}
	}
	return nil
}

// EachRequest visits every live request across all channels.
func (s *System) EachRequest(f func(*Request)) {
	for _, c := range s.ctrls {
		c.EachRequest(f)
	}
}
