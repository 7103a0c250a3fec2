package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mil/internal/obs"
	"mil/internal/workload"
)

var updateObs = flag.Bool("update", false, "rewrite the observability golden files from the current output")

// obsConfig is the server/mil cell the observability tests share.
func obsConfig(t *testing.T, ops int64) Config {
	t.Helper()
	b, err := workload.ByName("STRMATCH")
	if err != nil {
		t.Fatal(err)
	}
	return Config{System: Server, Scheme: "mil", Benchmark: b, MemOpsPerThread: ops}
}

// TestLoopStatsSemantics pins the LoopStats contract both loop modes
// share (see the LoopStats doc): EventsFired counts landed cycles,
// CyclesSkipped counts proven-no-op cycles, and the two always partition
// the timeline. The steplock loop lands every cycle, so its counters are
// the degenerate case of the same accounting, not a different quantity.
func TestLoopStatsSemantics(t *testing.T) {
	cfg := obsConfig(t, 1200)

	cfg.Steplock = false
	event, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Steplock = true
	step, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range []*Result{event, step} {
		if got, want := r.Loop.EventsFired+r.Loop.CyclesSkipped, r.CPUCycles; got != want {
			t.Errorf("steplock=%v: EventsFired+CyclesSkipped = %d, want CPUCycles = %d",
				r.Loop.Steplock, got, want)
		}
	}
	if step.Loop.CyclesSkipped != 0 {
		t.Errorf("steplock loop reports %d skipped cycles, want 0", step.Loop.CyclesSkipped)
	}
	if step.Loop.EventsFired != step.CPUCycles {
		t.Errorf("steplock loop fired %d events over %d cycles; every cycle must land",
			step.Loop.EventsFired, step.CPUCycles)
	}
	if event.Loop.CyclesSkipped == 0 {
		t.Error("event loop skipped nothing; the differential exercises one mode twice")
	}
	// Same simulation, same timeline: the loops must agree on its length,
	// so fired+skipped is comparable across modes by construction.
	if event.CPUCycles != step.CPUCycles {
		t.Errorf("loop modes disagree on the timeline: event %d vs steplock %d cycles",
			event.CPUCycles, step.CPUCycles)
	}
}

// metricsCSV runs cfg with a fresh registry attached and returns the
// snapshot.
func metricsCSV(t *testing.T, cfg Config) (string, *Result) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Obs{Metrics: reg}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String(), res
}

// TestIdleWindowReconciliation is the Figure-5 cross-check: the idle
// windows recorded sample by sample in the histogram must sum exactly to
// the idle cycles the controllers count in aggregate (pending + empty).
// Any drift means a window was dropped, double-counted, or misclosed.
func TestIdleWindowReconciliation(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := obsConfig(t, 1200)
	cfg.Obs = &obs.Obs{Metrics: reg}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := reg.Hist("bus_idle_window_cycles", obs.IdleWindowEdges...)
	if h.Count() == 0 {
		t.Fatal("no idle windows recorded; the run exercises nothing")
	}
	wantIdle := res.Mem.IdlePendingCycles + res.Mem.IdleEmptyCycles
	if h.Sum() != wantIdle {
		t.Errorf("idle-window histogram sums to %d cycles, controllers counted %d idle (pending %d + empty %d)",
			h.Sum(), wantIdle, res.Mem.IdlePendingCycles, res.Mem.IdleEmptyCycles)
	}
}

// TestObsMetricsLoopModeAgnostic runs the same cell under both loop modes
// and requires identical metric snapshots, minus the counters that are
// definitionally mode-specific: the steplock loop never consults NextWake
// and lands every cycle, so the scheduler work it drives
// (memctrl_sched_examined_total) and loop_* differ by design. Parked
// MSHR-full spins are charged by the same Tick skip in both loops, so
// cpu_spin_parked_cycles_total must match.
func TestObsMetricsLoopModeAgnostic(t *testing.T) {
	if testing.Short() {
		t.Skip("double run is slow")
	}
	cfg := obsConfig(t, 1200)
	cfg.Steplock = false
	eventCSV, _ := metricsCSV(t, cfg)
	cfg.Steplock = true
	stepCSV, _ := metricsCSV(t, cfg)

	filter := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.Contains(line, ",memctrl_sched_examined_") || strings.Contains(line, ",loop_") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if e, s := filter(eventCSV), filter(stepCSV); e != s {
		t.Errorf("loop mode leaked into the metrics snapshot:\nevent:\n%s\nsteplock:\n%s", e, s)
	}
}

// TestObsDisabledLeavesResultsAlone is the acceptance gate for the whole
// layer: attaching the full observability stack must not perturb a single
// simulation output.
func TestObsDisabledLeavesResultsAlone(t *testing.T) {
	cfg := obsConfig(t, 1200)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = &obs.Obs{Metrics: obs.NewRegistry(), Trace: obs.NewTrace(0)}
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CPUCycles != observed.CPUCycles || !reflect.DeepEqual(plain.Mem, observed.Mem) ||
		plain.Cache != observed.Cache || plain.DRAM != observed.DRAM {
		t.Errorf("observability changed the simulation:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

// TestObsGolden pins the exported artifacts of one server/mil cell: the
// metrics CSV and a capped Perfetto trace. Re-bless with -update after an
// intentional model or exporter change (make golden does both families).
func TestObsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	// A small cap keeps the golden reviewable; the tail is counted in
	// milsimDroppedEvents rather than recorded.
	rec := obs.NewTrace(400)
	cfg := obsConfig(t, 60)
	cfg.Obs = &obs.Obs{Metrics: reg, Trace: rec}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	var csv, trace bytes.Buffer
	if err := reg.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSON(&trace); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(trace.Bytes(), &doc); err != nil {
		t.Fatalf("trace golden is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("trace golden has no traceEvents array")
	}

	for _, g := range []struct {
		file string
		got  []byte
	}{
		{"metrics.csv", csv.Bytes()},
		{"trace.json", trace.Bytes()},
	} {
		path := filepath.Join("testdata", "obs", g.file)
		if *updateObs {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update to bless): %v", err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s drifted from golden (re-bless with -update if intentional); got %d bytes, want %d",
				g.file, len(g.got), len(want))
		}
	}
}
