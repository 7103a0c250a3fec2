package cpu

import (
	"testing"

	"mil/internal/cache"
	"mil/internal/sched"
)

// listStream replays a fixed op list.
type listStream struct {
	ops []Op
	i   int
}

func (s *listStream) Next() (Op, bool) {
	if s.i >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

// ctrlPort is a MemPort whose completions the test triggers manually.
type ctrlPort struct {
	pending map[int64]func(int64)
	reads   int
}

func newCtrlPort() *ctrlPort { return &ctrlPort{pending: map[int64]func(int64){}} }

func (p *ctrlPort) ReadLine(line int64, demand bool, stream int, done func(int64)) bool {
	p.reads++
	p.pending[line] = done
	return true
}
func (p *ctrlPort) WriteLine(line int64, stream int) bool { return true }
func (p *ctrlPort) Promote(line int64)                    {}
func (p *ctrlPort) AdmissionVersion() uint64              { return 0 }
func (p *ctrlPort) complete(line int64) {
	done := p.pending[line]
	delete(p.pending, line)
	done(line)
}

func smallHier(t *testing.T, port cache.MemPort, cores int) *cache.Hierarchy {
	t.Helper()
	h, err := cache.NewHierarchy(cache.Config{
		Cores: cores, LineBytes: 64,
		L1Size: 64 * 8, L1Ways: 2, L1HitLat: 2,
		L2Size: 64 * 64, L2Ways: 4, L2HitLat: 8,
		MSHRs: 8,
	}, port)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Cores: 0, ThreadsPerCore: 1, IssueWidth: 1},
		{Cores: 1, ThreadsPerCore: 0, IssueWidth: 1},
		{Cores: 1, ThreadsPerCore: 1, IssueWidth: 0},
		{Cores: 1, ThreadsPerCore: 1, IssueWidth: 1, OutOfOrder: true, MaxOutstanding: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	good := ServerConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Threads() != 32 {
		t.Fatalf("server threads = %d", good.Threads())
	}
	mobile := MobileConfig()
	if mobile.Threads() != 8 {
		t.Fatal("mobile threads")
	}
}

func TestStreamCountMustMatch(t *testing.T) {
	port := newCtrlPort()
	h := smallHier(t, port, 1)
	cfg := Config{Cores: 1, ThreadsPerCore: 1, IssueWidth: 1}
	if _, err := NewProcessor(cfg, h, nil); err == nil {
		t.Error("empty stream slice accepted")
	}
	if _, err := NewProcessor(cfg, nil, []Stream{&listStream{}}); err == nil {
		t.Error("nil hierarchy accepted")
	}
}

func TestComputeTiming(t *testing.T) {
	port := newCtrlPort()
	h := smallHier(t, port, 1)
	p, err := NewProcessor(Config{Cores: 1, ThreadsPerCore: 1, IssueWidth: 2}, h,
		[]Stream{&listStream{ops: []Op{{Kind: OpCompute, N: 10}}}})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for ; !p.Done() && now < 100; now++ {
		p.Tick(now)
	}
	// 10 instructions at width 2 = 5 cycles, +1 tick to observe the end.
	if ft := p.FinishTimes()[0]; ft != 5 {
		t.Fatalf("finish at %d, want 5", ft)
	}
	if p.Retired != 10 {
		t.Fatalf("retired = %d", p.Retired)
	}
}

func TestInOrderBlocksOnMiss(t *testing.T) {
	port := newCtrlPort()
	h := smallHier(t, port, 1)
	p, err := NewProcessor(Config{Cores: 1, ThreadsPerCore: 1, IssueWidth: 1}, h,
		[]Stream{&listStream{ops: []Op{
			{Kind: OpLoad, Addr: 0},
			{Kind: OpLoad, Addr: 64 * 100},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 50; now++ {
		p.Tick(now)
	}
	if port.reads != 1 {
		t.Fatalf("in-order issued %d reads while blocked, want 1", port.reads)
	}
	port.complete(0)
	for now := int64(50); now < 100; now++ {
		p.Tick(now)
	}
	if port.reads != 2 {
		t.Fatalf("second load never issued: %d", port.reads)
	}
	port.complete(100)
	for now := int64(100); now < 150 && !p.Done(); now++ {
		p.Tick(now)
	}
	if !p.Done() {
		t.Fatal("processor never finished")
	}
	if p.StallTics == 0 {
		t.Fatal("no stall cycles recorded for a blocking miss")
	}
}

func TestOutOfOrderOverlapsMisses(t *testing.T) {
	port := newCtrlPort()
	h := smallHier(t, port, 1)
	p, err := NewProcessor(Config{Cores: 1, ThreadsPerCore: 1, IssueWidth: 1, OutOfOrder: true, MaxOutstanding: 4}, h,
		[]Stream{&listStream{ops: []Op{
			{Kind: OpLoad, Addr: 0},
			{Kind: OpLoad, Addr: 64 * 100},
			{Kind: OpLoad, Addr: 64 * 200},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 20; now++ {
		p.Tick(now)
	}
	if port.reads != 3 {
		t.Fatalf("OoO core issued %d reads, want 3 overlapped", port.reads)
	}
}

func TestOutOfOrderWindowLimit(t *testing.T) {
	port := newCtrlPort()
	h := smallHier(t, port, 1)
	p, err := NewProcessor(Config{Cores: 1, ThreadsPerCore: 1, IssueWidth: 1, OutOfOrder: true, MaxOutstanding: 2}, h,
		[]Stream{&listStream{ops: []Op{
			{Kind: OpLoad, Addr: 0},
			{Kind: OpLoad, Addr: 64 * 100},
			{Kind: OpLoad, Addr: 64 * 200},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 20; now++ {
		p.Tick(now)
	}
	if port.reads != 2 {
		t.Fatalf("window of 2 let %d misses fly", port.reads)
	}
	port.complete(0)
	for now := int64(20); now < 40; now++ {
		p.Tick(now)
	}
	if port.reads != 3 {
		t.Fatalf("third load never issued after a completion: %d", port.reads)
	}
}

func TestStoresDoNotBlock(t *testing.T) {
	port := newCtrlPort()
	h := smallHier(t, port, 1)
	p, err := NewProcessor(Config{Cores: 1, ThreadsPerCore: 1, IssueWidth: 1}, h,
		[]Stream{&listStream{ops: []Op{
			{Kind: OpStore, Addr: 0},
			{Kind: OpStore, Addr: 64 * 100},
			{Kind: OpCompute, N: 1},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 20 && !p.Done(); now++ {
		p.Tick(now)
	}
	// Both store misses issued, thread finished without waiting for fills.
	if port.reads != 2 {
		t.Fatalf("store misses issued %d reads", port.reads)
	}
	if !p.Done() {
		t.Fatal("stores blocked the thread")
	}
	if p.StoreOps != 2 {
		t.Fatalf("store ops = %d", p.StoreOps)
	}
}

func TestMultithreadedCoreHidesLatency(t *testing.T) {
	port := newCtrlPort()
	h := smallHier(t, port, 1)
	// Two threads on one core: when thread 0 blocks, thread 1 proceeds.
	p, err := NewProcessor(Config{Cores: 1, ThreadsPerCore: 2, IssueWidth: 1}, h,
		[]Stream{
			&listStream{ops: []Op{{Kind: OpLoad, Addr: 0}}},
			&listStream{ops: []Op{{Kind: OpCompute, N: 4}}},
		})
	if err != nil {
		t.Fatal(err)
	}
	for now := int64(0); now < 20; now++ {
		p.Tick(now)
	}
	times := p.FinishTimes()
	if times[1] == 0 || times[1] > 10 {
		t.Fatalf("thread 1 did not make progress under thread 0's miss: %v", times)
	}
	port.complete(0)
	for now := int64(20); now < 40 && !p.Done(); now++ {
		p.Tick(now)
	}
	if !p.Done() {
		t.Fatal("thread 0 never unblocked")
	}
}

func TestL1HitLatencyApplied(t *testing.T) {
	port := newCtrlPort()
	h := smallHier(t, port, 1)
	p, err := NewProcessor(Config{Cores: 1, ThreadsPerCore: 1, IssueWidth: 1}, h,
		[]Stream{&listStream{ops: []Op{
			{Kind: OpLoad, Addr: 0},
			{Kind: OpLoad, Addr: 8}, // same line: L1 hit after the fill
		}}})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for ; now < 10; now++ {
		p.Tick(now)
	}
	port.complete(0)
	for ; !p.Done() && now < 50; now++ {
		p.Tick(now)
	}
	if !p.Done() {
		t.Fatal("did not finish")
	}
	if p.LoadOps != 2 {
		t.Fatalf("loads = %d", p.LoadOps)
	}
}

// loopStream issues one op forever.
type loopStream struct{ op Op }

func (s *loopStream) Next() (Op, bool) { return s.op, true }

// TestTickZeroAllocOnL1Hits pins the processor's per-op path at zero heap
// allocations: a load that hits the L1 must not move its op to the heap
// or build a fill callback.
func TestTickZeroAllocOnL1Hits(t *testing.T) {
	port := newCtrlPort()
	h := smallHier(t, port, 1)
	p, err := NewProcessor(Config{Cores: 1, ThreadsPerCore: 1, IssueWidth: 1}, h,
		[]Stream{&loopStream{op: Op{Kind: OpLoad, Addr: 64}}})
	if err != nil {
		t.Fatal(err)
	}
	p.Tick(0)
	port.complete(1) // the first load misses; every later one hits
	now := int64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		p.Tick(now)
		now++
	})
	if allocs != 0 {
		t.Fatalf("Processor.Tick on an L1-hit stream: %.1f allocs/op, want 0", allocs)
	}
	if p.LoadOps < 100 {
		t.Fatalf("only %d loads ran; the stream did not hit", p.LoadOps)
	}
}

// TestParkedRetryChargesMissesUntilFill: a load refused because every MSHR
// is allocated parks its thread. The thread leaves the wake bound, each
// landed or skipped cycle charges exactly the L1 and L2 miss a retry would
// have counted, and the first fill (which frees an MSHR) reissues it.
func TestParkedRetryChargesMissesUntilFill(t *testing.T) {
	port := newCtrlPort()
	h := smallHier(t, port, 1) // 8 MSHRs
	ops := make([]Op, 0, 9)
	for i := int64(0); i < 9; i++ {
		ops = append(ops, Op{Kind: OpLoad, Addr: 64 * 100 * (i + 1)})
	}
	p, err := NewProcessor(Config{Cores: 1, ThreadsPerCore: 1, IssueWidth: 1, OutOfOrder: true, MaxOutstanding: 16}, h,
		[]Stream{&listStream{ops: ops}})
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	for ; now < 9; now++ {
		p.Tick(now) // eight misses fill the MSHRs; the ninth load is refused
	}
	th := p.threads[0]
	if !th.parked(h) || port.reads != 8 {
		t.Fatalf("after 8 misses: parked %v, %d reads", th.parked(h), port.reads)
	}
	if w := p.NextWake(now - 1); w != sched.Never {
		t.Fatalf("NextWake = %d with the only thread parked, want Never", w)
	}
	before := h.Stats()
	p.Tick(now) // a landed cycle
	p.SkipTo(now + 10)
	p.Tick(now + 10)
	after := h.Stats()
	if d1, d2 := after.L1Misses-before.L1Misses, after.L2Misses-before.L2Misses; d1 != 11 || d2 != 11 {
		t.Fatalf("11 parked cycles charged %d L1 and %d L2 misses, want 11 each", d1, d2)
	}
	port.complete(64 * 100 / 64)
	if th.parked(h) {
		t.Fatal("a fill left the thread parked")
	}
	if w := p.NextWake(now + 10); w != now+11 {
		t.Fatalf("NextWake after the fill = %d, want %d", w, now+11)
	}
	p.Tick(now + 11)
	if th.hasPending || port.reads != 9 {
		t.Fatalf("the refused load was not reissued after the fill (pending %v, %d reads)", th.hasPending, port.reads)
	}
}
