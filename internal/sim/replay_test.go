package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mil/internal/fault"
	"mil/internal/trace"
	"mil/internal/workload"
)

// record runs cfg with the trace recorder attached and returns the result
// and the recorded trace.
func record(t *testing.T, cfg Config) (*Result, *trace.Trace) {
	t.Helper()
	var tr *trace.Trace
	rcfg := cfg
	rcfg.RecordTrace = func(x *trace.Trace) { tr = x }
	res, err := Run(rcfg)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	if tr == nil {
		t.Fatal("RecordTrace sink never called")
	}
	return res, tr
}

// replay runs cfg driven by tr.
func replay(t *testing.T, cfg Config, tr *trace.Trace) *Result {
	t.Helper()
	pcfg := cfg
	pcfg.ReplayTrace = tr
	res, err := Run(pcfg)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	return res
}

// requireSameResult fails unless the two results match field for field.
func requireSameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	if !reflect.DeepEqual(want.Mem, got.Mem) {
		t.Errorf("%s: Mem stats diverge:\n  full:   %+v\n  replay: %+v", label, want.Mem, got.Mem)
	}
	wm, gm := *want, *got
	wm.Mem, gm.Mem = nil, nil
	if !reflect.DeepEqual(&wm, &gm) {
		t.Errorf("%s: results diverge:\n  full:   %+v\n  replay: %+v", label, wm, gm)
	}
	t.FailNow()
}

// TestReplayEquivalenceMatrix is the headline differential: across
// systems, schemes (including the fault/degrade path), seeds, and both
// loop modes, (a) attaching the recorder must not change the Result, and
// (b) replaying the recorded trace must reproduce the full simulation
// byte for byte.
func TestReplayEquivalenceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	type cell struct {
		scheme string
		fault  fault.Config
	}
	cells := []cell{
		{scheme: "raw"},
		{scheme: "baseline"},
		{scheme: "mil"},
		{scheme: "mil-degrade", fault: fault.Config{BER: 1e-5, Seed: 7}},
	}
	systems := []SystemKind{Server, Mobile}
	seeds := []uint64{0, 42}
	steplocks := []bool{false, true}
	if raceEnabled {
		// One mobile event-loop cell keeps the record/replay harness itself
		// raced; the full matrix is equivalence coverage, not concurrency
		// coverage.
		systems, cells, seeds, steplocks = systems[1:], cells[:1], seeds[:1], steplocks[:1]
	}
	for _, system := range systems {
		for _, c := range cells {
			for _, seed := range seeds {
				for _, steplock := range steplocks {
					name := fmt.Sprintf("%s/%s/seed%d/steplock=%v", system, c.scheme, seed, steplock)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						b, err := workload.ByName("STRMATCH")
						if err != nil {
							t.Fatal(err)
						}
						cfg := Config{
							System: system, Scheme: c.scheme, Benchmark: b,
							MemOpsPerThread: 1200, Seed: seed, Fault: c.fault,
							Steplock: steplock,
						}
						full, err := Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						recorded, tr := record(t, cfg)
						requireSameResult(t, full, recorded, "recording perturbed the run")
						replayed := replay(t, cfg, tr)
						requireSameResult(t, full, replayed, "replay")
					})
				}
			}
		}
	}
}

// TestReplayOfWritesIsExact covers traces that carry write traffic. A read
// completing inside the controller tick fills the cache, and the fill can
// evict a dirty line whose writeback enters the write queue mid-tick,
// before that cycle's schedule and occupancy count; replay must enqueue it
// at the same point (trace.Event.Parent), not after the tick. Server
// HISTOGRAM at 200 ops used to replay with silently different write-queue
// occupancy; the mobile cells used to trip the completion fence.
func TestReplayOfWritesIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	cells := []struct {
		system SystemKind
		bench  string
		ops    int64
	}{
		{Server, "HISTOGRAM", 200},
		{Mobile, "HISTOGRAM", 800},
		{Mobile, "CG", 3000},
	}
	if raceEnabled {
		cells = cells[:1]
	}
	for _, c := range cells {
		for _, scheme := range []string{"baseline", "mil"} {
			t.Run(fmt.Sprintf("%s/%s/%d/%s", c.system, c.bench, c.ops, scheme), func(t *testing.T) {
				t.Parallel()
				b, err := workload.ByName(c.bench)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{System: c.system, Scheme: scheme, Benchmark: b, MemOpsPerThread: c.ops, Seed: 1}
				recorded, tr := record(t, cfg)
				if recorded.Mem.Writes == 0 {
					t.Fatal("no write reached the bus; test exercises nothing")
				}
				mid := 0
				for i := range tr.Events {
					if tr.Events[i].Parent != 0 {
						mid++
					}
				}
				if mid == 0 {
					t.Fatal("no mid-tick writeback recorded; test exercises nothing")
				}
				requireSameResult(t, recorded, replay(t, cfg, tr), "write-carrying replay")
			})
		}
	}
}

// TestReplayMetricsCSV holds the observability side of the replay contract:
// a replayed cell with a metrics registry attached must produce the same
// snapshot as a fully simulated one, except two front-end work counters:
// memctrl_sched_examined_total, because the replay driver consults
// NextWake on its own cadence, exactly like the two loop modes differ
// from each other (TestObsMetricsLoopModeAgnostic), and
// cpu_spin_parked_cycles_total, because a replay runs no processor. The
// loop_* counters must match exactly: a replayed Result reports the
// recorded loop.
func TestReplayMetricsCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("double run is slow")
	}
	cfg := obsConfig(t, 1200)
	fullCSV, _ := metricsCSV(t, cfg)
	_, tr := record(t, cfg)
	pcfg := cfg
	pcfg.ReplayTrace = tr
	replayCSV, _ := metricsCSV(t, pcfg)

	filter := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, ",memctrl_sched_examined_") || strings.Contains(line, ",cpu_spin_parked_") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if f, r := filter(fullCSV), filter(replayCSV); f != r {
		t.Errorf("replay leaked into the metrics snapshot:\nfull:\n%s\nreplay:\n%s", f, r)
	}
}

// TestReplayAcrossSchemes is what the trace layer exists for: a trace
// recorded under one scheme replays for every scheme in the same
// front-end timing class, and the replayed Result is byte-identical to a
// full simulation of the *target* scheme.
func TestReplayAcrossSchemes(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	pairs := []struct {
		recordScheme string
		recordX      int
		replayScheme string
		replayX      int
	}{
		{recordScheme: "baseline", replayScheme: "raw"},
		{recordScheme: "raw", replayScheme: "bi"},
		{recordScheme: "milc", replayScheme: "bl10"},
		{recordScheme: "lwc3", replayScheme: "bl16"},
		{recordScheme: "mil", replayScheme: "mil-degrade"},
		{recordScheme: "mil", recordX: 14, replayScheme: "mil", replayX: 0},
	}
	for _, p := range pairs {
		name := fmt.Sprintf("%s,x%d->%s,x%d", p.recordScheme, p.recordX, p.replayScheme, p.replayX)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := workload.ByName("STRMATCH")
			if err != nil {
				t.Fatal(err)
			}
			recCfg := Config{
				System: Server, Scheme: p.recordScheme, Benchmark: b,
				MemOpsPerThread: 1200, LookaheadX: p.recordX, Seed: 42,
			}
			repCfg := recCfg
			repCfg.Scheme, repCfg.LookaheadX = p.replayScheme, p.replayX
			if recCfg.FrontEndKey() != repCfg.FrontEndKey() {
				t.Fatalf("front-end keys differ; pair is not a timing class:\n  %s\n  %s",
					recCfg.FrontEndKey(), repCfg.FrontEndKey())
			}
			_, tr := record(t, recCfg)
			full, err := Run(repCfg)
			if err != nil {
				t.Fatal(err)
			}
			replayed := replay(t, repCfg, tr)
			requireSameResult(t, full, replayed, "cross-scheme replay")
		})
	}
}

// TestReplayDivergenceDetected proves the driver's verification teeth: a
// trace replayed under a scheme from a *different* timing class (MiLC
// drives 10-beat bursts, the static class 8) must fail loudly with a
// divergence error, never return silently wrong numbers.
func TestReplayDivergenceDetected(t *testing.T) {
	b, err := workload.ByName("GUPS")
	if err != nil {
		t.Fatal(err)
	}
	recCfg := Config{System: Server, Scheme: "baseline", Benchmark: b, MemOpsPerThread: 600}
	_, tr := record(t, recCfg)
	badCfg := recCfg
	badCfg.Scheme = "milc"
	badCfg.ReplayTrace = tr
	if _, err := Run(badCfg); err == nil {
		t.Fatal("replay under a different timing class returned a result; want a divergence error")
	} else if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("want a divergence error, got: %v", err)
	}
}

// TestFrontEndKeyClasses pins the timing-class algebra FrontEndKey
// collapses schemes with.
func TestFrontEndKeyClasses(t *testing.T) {
	b, err := workload.ByName("STRMATCH")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{System: Server, Benchmark: b, MemOpsPerThread: 1000, Seed: 42}
	key := func(mut func(*Config)) string {
		c := base
		mut(&c)
		return c.FrontEndKey()
	}
	same := [][2]func(*Config){
		{func(c *Config) { c.Scheme = "baseline" }, func(c *Config) { c.Scheme = "raw" }},
		{func(c *Config) { c.Scheme = "baseline" }, func(c *Config) { c.Scheme = "bi" }},
		{func(c *Config) { c.Scheme = "milc" }, func(c *Config) { c.Scheme = "bl10" }},
		{func(c *Config) { c.Scheme = "lwc3" }, func(c *Config) { c.Scheme = "bl16" }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil-degrade" }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.LookaheadX = 14 }},
	}
	for i, pair := range same {
		if a, b := key(pair[0]), key(pair[1]); a != b {
			t.Errorf("same-class pair %d got distinct keys:\n  %s\n  %s", i, a, b)
		}
	}
	differ := [][2]func(*Config){
		{func(c *Config) { c.Scheme = "baseline" }, func(c *Config) { c.Scheme = "milc" }},
		// Same beat count, different codec ExtraLatency: not a class.
		{func(c *Config) { c.Scheme = "milc" }, func(c *Config) { c.Scheme = "cafo2" }},
		{func(c *Config) { c.Scheme = "cafo2" }, func(c *Config) { c.Scheme = "cafo4" }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil-nowropt" }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.LookaheadX = 4 }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.Seed = 7 }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.Steplock = true }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.System = Mobile }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.PowerDown = true }},
		// With faults enabled, error draws depend on the driven bits:
		// every scheme becomes its own class.
		{
			func(c *Config) { c.Scheme = "baseline"; c.Fault = fault.Config{BER: 1e-5} },
			func(c *Config) { c.Scheme = "raw"; c.Fault = fault.Config{BER: 1e-5} },
		},
		{
			func(c *Config) { c.Scheme = "mil"; c.Fault = fault.Config{BER: 1e-5} },
			func(c *Config) { c.Scheme = "mil-degrade"; c.Fault = fault.Config{BER: 1e-5} },
		},
	}
	for i, pair := range differ {
		if a, b := key(pair[0]), key(pair[1]); a == b {
			t.Errorf("distinct-class pair %d collided on key %s", i, a)
		}
	}
}

// TestClusterKeyDropsTimingClass pins the cluster key's shape: it merges
// across codec/policy/look-ahead (the axis the divergence fence arbitrates
// empirically), splits on every true front-end input, and refuses fault
// cells entirely (ROADMAP item 2's caveat — corrupted payloads are
// knob-dependent in ways a timing fence cannot see).
func TestClusterKeyDropsTimingClass(t *testing.T) {
	b, err := workload.ByName("STRMATCH")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{System: Server, Benchmark: b, MemOpsPerThread: 1000, Seed: 42}
	key := func(mut func(*Config)) string {
		c := base
		mut(&c)
		return c.ClusterKey()
	}
	// Any two non-fault schemes/look-aheads over the same inputs cluster —
	// including pairs FrontEndKey keeps apart.
	same := [][2]func(*Config){
		{func(c *Config) { c.Scheme = "baseline" }, func(c *Config) { c.Scheme = "milc" }},
		{func(c *Config) { c.Scheme = "milc" }, func(c *Config) { c.Scheme = "cafo2" }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.LookaheadX = 4 }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil-nowropt" }},
	}
	for i, pair := range same {
		if a, b := key(pair[0]), key(pair[1]); a != b {
			t.Errorf("same-cluster pair %d got distinct keys:\n  %s\n  %s", i, a, b)
		}
	}
	differ := [][2]func(*Config){
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.Seed = 7 }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.System = Mobile }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.MemOpsPerThread = 500 }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.PowerDown = true }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.Steplock = true }},
		{func(c *Config) { c.Scheme = "mil" }, func(c *Config) { c.Scheme = "mil"; c.WriteCRC = true }},
	}
	for i, pair := range differ {
		if a, b := key(pair[0]), key(pair[1]); a == b {
			t.Errorf("distinct-cluster pair %d collided on key %s", i, a)
		}
	}
	c := base
	c.Scheme = "mil"
	c.Fault = fault.Config{BER: 1e-5}
	if got := c.ClusterKey(); got != "" {
		t.Errorf("fault-injection config clusters under %q, want \"\"", got)
	}
}

// TestReplayConfigValidation pins the mutual-exclusion rules: replay and
// record cannot combine with each other or with checkpoint/resume.
func TestReplayConfigValidation(t *testing.T) {
	b, err := workload.ByName("STRMATCH")
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{CPUCycles: 2, DRAMCycles: 2, EventsFired: 2}
	sink := func(*trace.Trace) {}
	bad := []Config{
		{Benchmark: b, Scheme: "raw", ReplayTrace: tr, RecordTrace: sink},
		{Benchmark: b, Scheme: "raw", ReplayTrace: tr, Checkpoint: "x.milsnap"},
		{Benchmark: b, Scheme: "raw", ReplayTrace: tr, Resume: "x.milsnap"},
		{Benchmark: b, Scheme: "raw", RecordTrace: sink, Checkpoint: "x.milsnap"},
		{Benchmark: b, Scheme: "raw", RecordTrace: sink, Resume: "x.milsnap"},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated; want an error", i)
		}
	}
}
