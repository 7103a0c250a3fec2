package memctrl

import (
	"slices"
	"testing"

	"mil/internal/code"
	"mil/internal/dram"
	"mil/internal/snap"
)

// admissionReq builds a mapped read or write for the admission tests.
func admissionReq(t *testing.T, line int64, write, demand bool) *Request {
	t.Helper()
	return scriptedReq{line: line, write: write, demand: demand}.build(t)
}

// fillPrefetchShare enqueues prefetch reads until the share cap refuses
// one, and returns the admitted prefetches.
func fillPrefetchShare(t *testing.T, c *Controller) []*Request {
	t.Helper()
	var pfs []*Request
	for i := int64(0); ; i++ {
		req := admissionReq(t, 1000+i*64, false, false)
		if !c.Enqueue(req, 0) {
			if len(pfs) != c.cfg.ReadQueue/4 {
				t.Fatalf("prefetch share admitted %d, want %d", len(pfs), c.cfg.ReadQueue/4)
			}
			return pfs
		}
		pfs = append(pfs, req)
	}
}

// TestAdmissionVersionRules pins which controller events move the
// admission version: exactly those after which a refused Enqueue could
// succeed.
func TestAdmissionVersionRules(t *testing.T) {
	c := testController(t)
	moved := func(label string, want bool, f func()) {
		t.Helper()
		v := c.AdmissionVersion()
		f()
		if got := c.AdmissionVersion() != v; got != want {
			t.Errorf("%s: version moved = %v, want %v", label, got, want)
		}
	}

	moved("demand read admitted", false, func() {
		if !c.Enqueue(admissionReq(t, 1, false, true), 0) {
			t.Fatal("demand read refused")
		}
	})
	pfs := fillPrefetchShare(t, c)
	refused := admissionReq(t, 99_000, false, false)
	moved("prefetch refused by the share cap", false, func() {
		if c.Enqueue(refused, 0) {
			t.Fatal("prefetch admitted past the share cap")
		}
	})
	moved("write admitted", true, func() {
		if !c.Enqueue(admissionReq(t, 5, true, false), 0) {
			t.Fatal("write refused")
		}
	})
	moved("write coalesced", false, func() {
		if !c.Enqueue(admissionReq(t, 5, true, false), 0) {
			t.Fatal("coalescing write refused")
		}
	})
	moved("read forwarded", false, func() {
		if !c.Enqueue(admissionReq(t, 5, false, true), 0) {
			t.Fatal("forwarded read refused")
		}
	})
	moved("demand promoted", false, func() { c.Promote(c.rq[0]) })
	moved("queued prefetch promoted", true, func() { c.Promote(pfs[0]) })
	if c.prefetches != len(pfs)-1 {
		t.Fatalf("prefetch count %d after a promotion, want %d", c.prefetches, len(pfs)-1)
	}
	if !c.Enqueue(refused, 0) {
		t.Fatal("refused prefetch still refused after a queued prefetch was promoted")
	}

	// Ticking until the first read leaves rq must move the version.
	v := c.AdmissionVersion()
	n := len(c.rq)
	for now := int64(1); len(c.rq) == n; now++ {
		if c.AdmissionVersion() != v {
			t.Fatalf("version moved at cycle %d with rq untouched", now)
		}
		c.Tick(now)
	}
	if c.AdmissionVersion() == v {
		t.Fatal("a read left rq without moving the version")
	}
	if n := c.countPrefetches(); n != c.prefetches {
		t.Fatalf("running prefetch count %d, rq holds %d", c.prefetches, n)
	}
}

// countPrefetches recounts the non-demand reads in rq the slow way.
func (c *Controller) countPrefetches() int {
	n := 0
	for _, r := range c.rq {
		if !r.Demand {
			n++
		}
	}
	return n
}

// TestRefusedEnqueueLeavesSchedulerState: a refused Enqueue changes
// nothing - no age stamp, bank-index entry, or rank count - so the wake
// bound it leaves is the one before it.
func TestRefusedEnqueueLeavesSchedulerState(t *testing.T) {
	c := testController(t)
	fillPrefetchShare(t, c)
	const now = 0
	seq, wake, queued := c.seq, c.NextWake(), slices.Clone(c.rankQueued)
	refused := admissionReq(t, 99_000, false, false)
	if c.Enqueue(refused, now) {
		t.Fatal("prefetch admitted past the share cap")
	}
	if c.seq != seq || !slices.Equal(c.rankQueued, queued) || c.NextWake() != wake {
		t.Fatal("a refused Enqueue changed the scheduler state")
	}
	checkIndex(t, c)
	if !c.Enqueue(admissionReq(t, 99_000, false, true), now) {
		t.Fatal("demand read refused")
	}
	if c.seq == seq || slices.Equal(c.rankQueued, queued) {
		t.Fatal("an admitted Enqueue left the age stamp or rank count alone")
	}
	checkIndex(t, c)
}

// checkIndex requires the bank index, the age stamps, and the per-rank
// counts to describe exactly the queue slices.
func checkIndex(t *testing.T, c *Controller) {
	t.Helper()
	ranks := make([]int, len(c.rankQueued))
	for _, qu := range []struct {
		reqs  []*Request
		idx   *bankQueues
		write bool
	}{{c.rq, &c.rqIdx, false}, {c.wq, &c.wqIdx, true}} {
		var walked []*Request
		for b := range qu.idx.lists {
			busy := qu.idx.busy[b>>6]>>(b&63)&1 == 1
			if busy != (len(qu.idx.lists[b][0])+len(qu.idx.lists[b][1]) > 0) {
				t.Fatalf("bank %d busy bit %v disagrees with its lists", b, busy)
			}
			for k, list := range qu.idx.lists[b] {
				for i, r := range list {
					if int(r.bank) != b || (!qu.write && readClass(r) != k) || (qu.write && k != 0) {
						t.Fatalf("bank %d class %d list holds line %d of bank %d", b, k, r.Line, r.bank)
					}
					if i > 0 && list[i-1].seq >= r.seq {
						t.Fatalf("bank %d class %d list out of age order", b, k)
					}
					walked = append(walked, r)
				}
			}
		}
		if len(walked) != len(qu.reqs) {
			t.Fatalf("index holds %d requests, queue %d", len(walked), len(qu.reqs))
		}
		for i, r := range qu.reqs {
			if i > 0 && qu.reqs[i-1].seq >= r.seq {
				t.Fatalf("queue out of age-stamp order at %d", i)
			}
			ranks[r.loc.Rank]++
		}
	}
	if !slices.Equal(ranks, c.rankQueued) {
		t.Fatalf("per-rank queued counts %v, queues hold %v", c.rankQueued, ranks)
	}
}

// TestRestoreRebuildsAdmissionState: the prefetch count, the queued-read
// flags, the bank indices, and the per-bank queue index are derived
// state, rebuilt by Restore.
func TestRestoreRebuildsAdmissionState(t *testing.T) {
	c := testController(t)
	for i := int64(0); i < 5; i++ {
		if !c.Enqueue(admissionReq(t, 500+i*64, false, true), 0) {
			t.Fatal("demand read refused")
		}
	}
	fillPrefetchShare(t, c)
	if !c.Enqueue(admissionReq(t, 7, true, false), 0) {
		t.Fatal("write refused")
	}
	var w snap.Writer
	c.Snapshot(&w)

	r := testController(t)
	if err := r.Restore(snap.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	if r.prefetches != c.prefetches || r.prefetches != r.countPrefetches() {
		t.Fatalf("restored prefetch count %d, want %d", r.prefetches, c.prefetches)
	}
	for i, req := range r.rq {
		if !req.queued {
			t.Fatalf("restored rq[%d] not flagged queued", i)
		}
		if req.bank != c.rq[i].bank {
			t.Fatalf("restored rq[%d] bank %d, want %d", i, req.bank, c.rq[i].bank)
		}
	}
	if r.wq[0].bank != c.wq[0].bank {
		t.Fatalf("restored wq[0] bank %d, want %d", r.wq[0].bank, c.wq[0].bank)
	}
	checkIndex(t, r)
	if !slices.Equal(r.rankQueued, c.rankQueued) {
		t.Fatalf("restored per-rank counts %v, want %v", r.rankQueued, c.rankQueued)
	}
	refused := admissionReq(t, 99_000, false, false)
	if r.Enqueue(refused, 0) {
		t.Fatal("restored controller admitted a prefetch past the share cap")
	}
	v := r.AdmissionVersion()
	r.Promote(r.rq[len(r.rq)-1])
	if r.AdmissionVersion() == v {
		t.Fatal("promoting a restored queued prefetch did not move the version")
	}
	if !r.Enqueue(refused, 0) {
		t.Fatal("restored controller refused a prefetch after a promotion freed the share")
	}
	checkIndex(t, r)
}

// TestSystemPromoteRoutesThroughController: System.Promote must keep the
// owning channel's count in step, and only flag a request it has not
// queued.
func TestSystemPromoteRoutesThroughController(t *testing.T) {
	s, err := NewSystem(SystemConfig{
		Channels:   2,
		Controller: DefaultConfig(dram.DDR4_3200()),
		Policy:     FixedPolicy{Codec: code.DBI{}},
		NewPhy:     func() Phy { return &PODPhy{} },
		Mem:        NewOverlayMemory(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	pf := &Request{Line: 3}
	if !s.Enqueue(pf, 0) {
		t.Fatal("prefetch refused")
	}
	c := s.Controller(pf.loc.Channel)
	v := s.AdmissionVersion()
	s.Promote(pf)
	if !pf.Demand || c.prefetches != 0 || s.AdmissionVersion() == v {
		t.Fatalf("promote of a queued prefetch: demand=%v count=%d version moved=%v",
			pf.Demand, c.prefetches, s.AdmissionVersion() != v)
	}
	loose := &Request{Line: 4}
	v = s.AdmissionVersion()
	s.Promote(loose)
	if !loose.Demand || s.AdmissionVersion() != v {
		t.Fatal("promote of an unqueued request must only flag it")
	}
}

// TestCompletionCallbackMayCoalesce: a forwarded read's completion runs
// inside the tick's deferred walk, and the fill it triggers can write
// back a line whose write is still queued; the coalesced write's own
// deferred completion must survive the walk and fire on the next tick.
func TestCompletionCallbackMayCoalesce(t *testing.T) {
	c := testController(t)
	if !c.Enqueue(admissionReq(t, 42, true, false), 0) {
		t.Fatal("write refused")
	}
	coalescedAt := int64(-1)
	wb := admissionReq(t, 42, true, false)
	wb.OnDone = func(now int64) { coalescedAt = now }
	rd := admissionReq(t, 42, false, true)
	rd.OnDone = func(now int64) {
		if !c.Enqueue(wb, now) {
			t.Error("coalescing write refused")
		}
	}
	if !c.Enqueue(rd, 0) {
		t.Fatal("forwarded read refused")
	}
	c.Tick(1) // the read forwards; its callback coalesces the write
	c.Tick(2)
	if coalescedAt != 2 {
		t.Fatalf("coalesced write completed at %d, want 2", coalescedAt)
	}
}
