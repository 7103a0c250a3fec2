package cache

import (
	"testing"
)

func newArray(t *testing.T, size, ways int) *Array {
	t.Helper()
	a, err := NewArray(size, 64, ways)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestArrayValidation(t *testing.T) {
	if _, err := NewArray(0, 64, 4); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := NewArray(64*12, 64, 4); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := NewArray(64*10, 64, 3); err == nil {
		t.Error("ragged ways accepted")
	}
}

func TestArrayHitMiss(t *testing.T) {
	a := newArray(t, 64*8, 2) // 4 sets x 2 ways
	if a.Lookup(5) != Invalid {
		t.Fatal("cold lookup hit")
	}
	a.Insert(5, Exclusive, false)
	if a.Lookup(5) != Exclusive {
		t.Fatal("inserted line missed")
	}
	if a.Hits != 1 || a.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", a.Hits, a.Misses)
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := newArray(t, 64*8, 2) // 4 sets
	// Lines 0, 4, 8 share set 0 (4 sets).
	a.Insert(0, Exclusive, false)
	a.Insert(4, Exclusive, false)
	a.Lookup(0) // make line 4 the LRU
	v := a.Insert(8, Exclusive, false)
	if !v.Valid || v.Line != 4 {
		t.Fatalf("victim = %+v, want line 4", v)
	}
	if a.Peek(0) == Invalid || a.Peek(8) == Invalid {
		t.Fatal("survivors missing")
	}
}

func TestArrayDirtyTracking(t *testing.T) {
	a := newArray(t, 64*8, 2)
	a.Insert(3, Modified, true)
	if !a.Dirty(3) {
		t.Fatal("dirty bit lost")
	}
	a.Insert(3, Shared, false) // re-insert must not clear dirty
	if !a.Dirty(3) {
		t.Fatal("re-insert cleared dirty bit")
	}
	st, dirty := a.Invalidate(3)
	if st != Shared || !dirty {
		t.Fatalf("invalidate = %v/%v", st, dirty)
	}
	if a.Dirty(3) {
		t.Fatal("dirty after invalidate")
	}
}

func TestArrayStatePanicsOnAbsent(t *testing.T) {
	a := newArray(t, 64*8, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.SetState(77, Modified)
}

func TestStateString(t *testing.T) {
	want := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M"}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("%d -> %q", s, s.String())
		}
	}
}

func TestPrefetcherTrainsOnStreams(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{Streams: 4, Distance: 4, Degree: 2})
	if out := p.OnDemandMiss(100); out != nil {
		t.Fatalf("first miss prefetched %v", out)
	}
	if out := p.OnDemandMiss(101); out != nil {
		t.Fatalf("stride-establishing miss prefetched %v", out)
	}
	out := p.OnDemandMiss(102)
	if len(out) != 2 || out[0] != 106 || out[1] != 107 {
		t.Fatalf("prefetches = %v, want [106 107]", out)
	}
}

func TestPrefetcherDescendingStream(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{Streams: 4, Distance: 2, Degree: 1})
	p.OnDemandMiss(100)
	p.OnDemandMiss(99)
	out := p.OnDemandMiss(98)
	if len(out) != 1 || out[0] != 96 {
		t.Fatalf("prefetches = %v, want [96]", out)
	}
}

func TestPrefetcherLearnsStrides(t *testing.T) {
	// A stride-8 sweep (multigrid coarse level) must prefetch in strides.
	p := NewPrefetcher(PrefetchConfig{Streams: 4, Distance: 4, Degree: 2})
	p.OnDemandMiss(100)
	if out := p.OnDemandMiss(108); out != nil {
		t.Fatalf("stride not yet confirmed: %v", out)
	}
	out := p.OnDemandMiss(116)
	if len(out) != 2 || out[0] != 116+8*4 || out[1] != 116+8*5 {
		t.Fatalf("prefetches = %v, want [148 156]", out)
	}
}

func TestPrefetcherIgnoresRandomMisses(t *testing.T) {
	p := NewPrefetcher(PrefetchConfig{Streams: 4, Distance: 4, Degree: 2})
	for _, l := range []int64{100, 5000, 90000, 1234567} {
		if out := p.OnDemandMiss(l); out != nil {
			t.Fatalf("random miss %d prefetched %v", l, out)
		}
	}
}

func TestPrefetcherDisabled(t *testing.T) {
	if NewPrefetcher(PrefetchConfig{}) != nil {
		t.Fatal("zero config should disable")
	}
}

// fakePort records memory traffic and completes reads on demand.
type fakePort struct {
	reads    []int64
	writes   []int64
	pending  map[int64]func(int64)
	rejectRd bool
	rejectWr bool
	version  uint64
}

func newFakePort() *fakePort { return &fakePort{pending: map[int64]func(int64){}} }

func (p *fakePort) ReadLine(line int64, demand bool, stream int, done func(int64)) bool {
	if p.rejectRd {
		return false
	}
	p.reads = append(p.reads, line)
	p.pending[line] = done
	return true
}

func (p *fakePort) WriteLine(line int64, stream int) bool {
	if p.rejectWr {
		return false
	}
	p.writes = append(p.writes, line)
	return true
}

func (p *fakePort) Promote(line int64) {}

// AdmissionVersion is scripted: a test bumps version whenever it lifts a
// rejection the hierarchy may be parked on.
func (p *fakePort) AdmissionVersion() uint64 { return p.version }

func (p *fakePort) complete(line int64) {
	done := p.pending[line]
	delete(p.pending, line)
	done(line)
}

func smallConfig() Config {
	return Config{
		Cores: 2, LineBytes: 64,
		L1Size: 64 * 8, L1Ways: 2, L1HitLat: 2,
		L2Size: 64 * 64, L2Ways: 4, L2HitLat: 8,
		MSHRs: 4,
	}
}

func newHierarchy(t *testing.T, cfg Config) (*Hierarchy, *fakePort) {
	t.Helper()
	port := newFakePort()
	h, err := NewHierarchy(cfg, port)
	if err != nil {
		t.Fatal(err)
	}
	return h, port
}

func TestHierarchyValidation(t *testing.T) {
	port := newFakePort()
	cfg := smallConfig()
	cfg.Cores = 0
	if _, err := NewHierarchy(cfg, port); err == nil {
		t.Error("zero cores accepted")
	}
	cfg = smallConfig()
	cfg.MSHRs = 0
	if _, err := NewHierarchy(cfg, port); err == nil {
		t.Error("zero MSHRs accepted")
	}
	if _, err := NewHierarchy(smallConfig(), nil); err == nil {
		t.Error("nil port accepted")
	}
}

func TestColdMissGoesToMemoryAndFills(t *testing.T) {
	h, port := newHierarchy(t, smallConfig())
	fired := false
	res, _ := h.Access(0, 0x1000, false, func() { fired = true })
	if res != Miss {
		t.Fatalf("result = %v", res)
	}
	if len(port.reads) != 1 || port.reads[0] != 0x1000/64 {
		t.Fatalf("reads = %v", port.reads)
	}
	port.complete(0x1000 / 64)
	if !fired {
		t.Fatal("done not called on fill")
	}
	// Now a hit, exclusive (sole owner).
	res, lat := h.Access(0, 0x1000, false, nil)
	if res != Hit || lat != 2 {
		t.Fatalf("after fill: %v/%d", res, lat)
	}
	if h.l1[0].Peek(0x1000/64) != Exclusive {
		t.Fatalf("state = %v, want E", h.l1[0].Peek(0x1000/64))
	}
}

func TestMSHRMergesDuplicateMisses(t *testing.T) {
	h, port := newHierarchy(t, smallConfig())
	n := 0
	h.Access(0, 0x2000, false, func() { n++ })
	h.Access(1, 0x2000, false, func() { n++ })
	if len(port.reads) != 1 {
		t.Fatalf("duplicate miss issued twice: %v", port.reads)
	}
	if h.Stats().MSHRMerges != 1 {
		t.Fatalf("merges = %d", h.Stats().MSHRMerges)
	}
	port.complete(0x2000 / 64)
	if n != 2 {
		t.Fatalf("waiters fired = %d", n)
	}
	// Both cores now share the line.
	if h.l1[0].Peek(0x2000/64) != Shared || h.l1[1].Peek(0x2000/64) != Shared {
		t.Fatal("sharers not in S")
	}
}

func TestMSHRCapacityForcesRetry(t *testing.T) {
	cfg := smallConfig()
	cfg.MSHRs = 1
	h, _ := newHierarchy(t, cfg)
	if res, _ := h.Access(0, 0x0, false, func() {}); res != Miss {
		t.Fatal("first miss rejected")
	}
	if res, _ := h.Access(0, 0x4000, false, func() {}); res != Retry {
		t.Fatal("second miss not rejected with MSHRs full")
	}
}

func TestStoreGetsModifiedAndWritesBackOnEviction(t *testing.T) {
	h, port := newHierarchy(t, smallConfig())
	h.Access(0, 0x0, true, nil)
	port.complete(0)
	if h.l1[0].Peek(0) != Modified {
		t.Fatalf("store state = %v", h.l1[0].Peek(0))
	}
	// Evict through L2 pressure: fill the L2 set holding line 0.
	// L2: 64 lines, 4 ways -> 16 sets; lines 0,16,32,... share set 0.
	for i := int64(1); i <= 4; i++ {
		l := i * 16
		h.Access(1, l*64, false, nil)
		port.complete(l)
	}
	if len(port.writes) != 1 || port.writes[0] != 0 {
		t.Fatalf("writes = %v, want [0]", port.writes)
	}
	// The back-invalidation must have removed the L1 copy too.
	if h.l1[0].Peek(0) != Invalid {
		t.Fatal("inclusive back-invalidation failed")
	}
}

func TestUpgradeInvalidatesOtherSharers(t *testing.T) {
	h, port := newHierarchy(t, smallConfig())
	h.Access(0, 0x0, false, func() {})
	h.Access(1, 0x0, false, func() {})
	port.complete(0)
	// Core 0 stores: hit in S, must upgrade and kill core 1's copy.
	res, lat := h.Access(0, 0x0, true, nil)
	if res != Hit {
		t.Fatalf("upgrade result %v", res)
	}
	if lat != 2+8 {
		t.Fatalf("upgrade latency %d, want L1+L2", lat)
	}
	if h.l1[0].Peek(0) != Modified {
		t.Fatal("writer not in M")
	}
	if h.l1[1].Peek(0) != Invalid {
		t.Fatal("other sharer survived the upgrade")
	}
	if h.Stats().Upgrades != 1 {
		t.Fatalf("upgrades = %d", h.Stats().Upgrades)
	}
}

func TestInterventionOnDirtyRemoteLine(t *testing.T) {
	h, port := newHierarchy(t, smallConfig())
	h.Access(0, 0x0, true, func() {})
	port.complete(0)
	// Core 1 reads the line core 0 modified: L2 hit with intervention.
	res, lat := h.Access(1, 0x0, false, nil)
	if res != Hit {
		t.Fatalf("result %v", res)
	}
	if lat != 2+8+8 {
		t.Fatalf("latency %d, want intervention penalty", lat)
	}
	if h.l1[0].Peek(0) != Shared || h.l1[1].Peek(0) != Shared {
		t.Fatal("post-intervention states wrong")
	}
	if h.Stats().Interventions != 1 {
		t.Fatalf("interventions = %d", h.Stats().Interventions)
	}
	// The dirty data must not be lost: evicting from L2 writes it back.
	for i := int64(1); i <= 4; i++ {
		h.Access(0, i*16*64, false, func() {})
		port.complete(i * 16)
	}
	if len(port.writes) != 1 {
		t.Fatalf("dirty intervention data lost: writes = %v", port.writes)
	}
}

func TestRetryAfterPortRejection(t *testing.T) {
	h, port := newHierarchy(t, smallConfig())
	port.rejectRd = true
	if res, _ := h.Access(0, 0x0, false, func() {}); res != Miss {
		t.Fatal("miss rejected despite free MSHR")
	}
	if len(port.reads) != 0 {
		t.Fatal("read issued while port rejecting")
	}
	port.rejectRd = false
	h.Tick()
	if len(port.reads) != 1 {
		t.Fatal("Tick did not retry the read")
	}
	port.complete(0)
	if res, _ := h.Access(0, 0x0, false, nil); res != Hit {
		t.Fatal("line not filled after retried read")
	}
}

func TestWritebackQueueDrainsOnTick(t *testing.T) {
	h, port := newHierarchy(t, smallConfig())
	h.Access(0, 0x0, true, func() {})
	port.complete(0)
	port.rejectWr = true
	for i := int64(1); i <= 4; i++ {
		h.Access(1, i*16*64, false, func() {})
		port.complete(i * 16)
	}
	if len(port.writes) != 0 {
		t.Fatal("write issued while rejected")
	}
	if !h.Pending() {
		t.Fatal("pending writeback not reported")
	}
	port.rejectWr = false
	h.Tick()
	if len(port.writes) != 1 || port.writes[0] != 0 {
		t.Fatalf("writes = %v", port.writes)
	}
}

func TestPendingWritebackServesSubsequentMiss(t *testing.T) {
	h, port := newHierarchy(t, smallConfig())
	h.Access(0, 0x0, true, func() {})
	port.complete(0)
	port.rejectWr = true
	for i := int64(1); i <= 4; i++ {
		h.Access(1, i*16*64, false, func() {})
		port.complete(i * 16)
	}
	// Line 0's writeback is stuck in the queue; a new access must see its
	// data (hit) rather than fetch a stale copy from memory.
	res, _ := h.Access(0, 0x0, false, nil)
	if res != Hit {
		t.Fatalf("result %v, want Hit from pending writeback", res)
	}
	if len(port.reads) != 5 {
		t.Fatalf("unexpected memory read: %v", port.reads)
	}
}

func TestDemandMissTriggersPrefetches(t *testing.T) {
	cfg := smallConfig()
	cfg.Prefetch = PrefetchConfig{Streams: 4, Distance: 2, Degree: 2}
	h, port := newHierarchy(t, cfg)
	for i := int64(0); i < 3; i++ {
		h.Access(0, i*64, false, func() {})
		port.complete(i)
	}
	// The third miss trains the stream: prefetches for lines 4,5 issue.
	s := h.Stats()
	if s.PrefetchesIssued != 2 {
		t.Fatalf("prefetches issued = %d", s.PrefetchesIssued)
	}
	if len(port.reads) != 5 {
		t.Fatalf("reads = %v", port.reads)
	}
	port.complete(4)
	port.complete(5)
	// Prefetched lines hit in the L2 (not L1).
	res, lat := h.Access(0, 4*64, false, nil)
	if res != Hit || lat != 2+8 {
		t.Fatalf("prefetched line: %v/%d", res, lat)
	}
}

func TestServerAndMobileConfigsBuild(t *testing.T) {
	for _, cfg := range []Config{ServerConfig(), MobileConfig()} {
		if _, err := NewHierarchy(cfg, newFakePort()); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}
