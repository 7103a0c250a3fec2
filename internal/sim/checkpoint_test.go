package sim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mil/internal/fault"
	"mil/internal/obs"
	"mil/internal/workload"
)

// runCheckpointed runs cfg uninterrupted, then re-runs it with a
// checkpoint forced at roughly the midpoint, resumes from the snapshot
// file, and returns both Results for comparison. Both runs attach a
// fresh metrics registry; the CSVs come back too so callers can assert
// observability parity across the suspend.
func runCheckpointed(t *testing.T, cfg Config) (full, resumed *Result, fullCSV, resumedCSV string) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "mid.milsnap")

	regA := obs.NewRegistry()
	ca := cfg
	ca.Obs = &obs.Obs{Metrics: regA}
	full, err := Run(ca)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if full.CPUCycles < 4 {
		t.Fatalf("run too short to split: %d cycles", full.CPUCycles)
	}

	regB := obs.NewRegistry()
	cb := cfg
	cb.Obs = &obs.Obs{Metrics: regB}
	cb.Checkpoint = ckpt
	cb.CheckpointAt = full.CPUCycles / 2
	if _, err := Run(cb); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("checkpointing run: want ErrCheckpointed, got %v", err)
	}

	cr := cfg
	cr.Obs = &obs.Obs{Metrics: regB}
	cr.Resume = ckpt
	resumed, err = Run(cr)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	var sbA, sbB strings.Builder
	if err := regA.WriteCSV(&sbA); err != nil {
		t.Fatalf("full-run metrics CSV: %v", err)
	}
	if err := regB.WriteCSV(&sbB); err != nil {
		t.Fatalf("resumed-run metrics CSV: %v", err)
	}
	return full, resumed, sbA.String(), sbB.String()
}

// requireResumeIdentical asserts the resumed Result (including the Loop
// counters, which carry across the suspend) and the metrics CSV are
// byte-identical to the uninterrupted run's.
func requireResumeIdentical(t *testing.T, full, resumed *Result, fullCSV, resumedCSV string) {
	t.Helper()
	if !reflect.DeepEqual(full, resumed) {
		if !reflect.DeepEqual(full.Mem, resumed.Mem) {
			t.Errorf("Mem stats diverge:\n  full:    %+v\n  resumed: %+v", full.Mem, resumed.Mem)
		}
		f, r := *full, *resumed
		f.Mem, r.Mem = nil, nil
		if !reflect.DeepEqual(&f, &r) {
			t.Errorf("results diverge:\n  full:    %+v\n  resumed: %+v", f, r)
		}
		t.FailNow()
	}
	if fullCSV != resumedCSV {
		t.Fatalf("metrics CSV diverges across resume:\n--- full ---\n%s--- resumed ---\n%s", fullCSV, resumedCSV)
	}
}

// TestCheckpointResumeMatrix is the tentpole differential: suspending at
// the midpoint and resuming must reproduce the uninterrupted run byte
// for byte across systems, schemes (including the degrade ladder), seeds,
// and both loop modes.
func TestCheckpointResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	type cell struct {
		scheme string
		fault  fault.Config
	}
	cells := []cell{
		{scheme: "raw"},
		{scheme: "mil"},
		{scheme: "mil-degrade", fault: fault.Config{BER: 1e-5, Seed: 7}},
	}
	systems := []SystemKind{Server, Mobile}
	seeds := []uint64{0, 42}
	loops := []bool{false, true}
	if raceEnabled {
		// The matrix is equivalence coverage, not concurrency coverage;
		// one mobile cell keeps the harness itself raced.
		systems, cells, seeds, loops = systems[1:], cells[:1], seeds[:1], loops[:1]
	}
	for _, system := range systems {
		for _, c := range cells {
			for _, seed := range seeds {
				for _, steplock := range loops {
					loop := "event"
					if steplock {
						loop = "steplock"
					}
					name := fmt.Sprintf("%s/%s/seed%d/%s", system, c.scheme, seed, loop)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						b, err := workload.ByName("STRMATCH")
						if err != nil {
							t.Fatal(err)
						}
						full, resumed, csvA, csvB := runCheckpointed(t, Config{
							System: system, Scheme: c.scheme, Benchmark: b,
							MemOpsPerThread: 300, Seed: seed, Fault: c.fault,
							Steplock: steplock,
						})
						requireResumeIdentical(t, full, resumed, csvA, csvB)
					})
				}
			}
		}
	}
}

// TestCheckpointResumeSaturated extends the matrix to cells whose
// controller queues run full and whose hierarchy parks on refused retries
// (DESIGN.md §5.15): the parked state is not serialized, so the resumed
// run must re-derive it on its first landed cycle without moving a
// single counter, the loop's included.
func TestCheckpointResumeSaturated(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	if raceEnabled {
		t.Skip("equivalence coverage; the matrix keeps the harness raced")
	}
	cells := []struct {
		bench string
		ops   int64
	}{
		{"HISTOGRAM", 400},
		{"CG", 1200},
	}
	for _, c := range cells {
		for _, scheme := range []string{"baseline", "mil"} {
			for _, steplock := range []bool{false, true} {
				loop := "event"
				if steplock {
					loop = "steplock"
				}
				t.Run(fmt.Sprintf("%s/%s/%s", c.bench, scheme, loop), func(t *testing.T) {
					t.Parallel()
					b, err := workload.ByName(c.bench)
					if err != nil {
						t.Fatal(err)
					}
					full, resumed, csvA, csvB := runCheckpointed(t, Config{
						System: Server, Scheme: scheme, Benchmark: b,
						MemOpsPerThread: c.ops, Seed: 1, Steplock: steplock,
					})
					if full.Mem.Writes == 0 {
						t.Fatal("no write reached the bus; test exercises nothing")
					}
					requireResumeIdentical(t, full, resumed, csvA, csvB)
				})
			}
		}
	}
}

// TestCheckpointResumeRetry covers the DDR4 write-CRC/CA-parity
// NACK-replay path: in-flight retry counters, backoff deadlines, and the
// storm detector all have to cross the suspend intact.
func TestCheckpointResumeRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	b, err := workload.ByName("GUPS")
	if err != nil {
		t.Fatal(err)
	}
	full, resumed, csvA, csvB := runCheckpointed(t, Config{
		System: Server, Scheme: "baseline", Benchmark: b,
		MemOpsPerThread: 400, WriteCRC: true, CAParity: true,
		Fault: fault.Config{BER: 5e-4, Seed: 3},
	})
	if full.Mem.Retries() == 0 {
		t.Fatal("no retries fired; test exercises nothing")
	}
	requireResumeIdentical(t, full, resumed, csvA, csvB)
}

// TestCheckpointResumePowerDown covers the power-down state machine: the
// suspend can land while a rank is powered down or mid-exit, and the
// residency accounting must still come out identical.
func TestCheckpointResumePowerDown(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	b, err := workload.ByName("MM")
	if err != nil {
		t.Fatal(err)
	}
	full, resumed, csvA, csvB := runCheckpointed(t, Config{
		System: Server, Scheme: "mil", Benchmark: b,
		MemOpsPerThread: 400, PowerDown: true,
	})
	if full.Mem.PowerDownCycles == 0 {
		t.Fatal("power-down never engaged; test exercises nothing")
	}
	requireResumeIdentical(t, full, resumed, csvA, csvB)
}

// TestCheckpointPeriodic exercises CheckpointEvery: the run completes
// normally (no ErrCheckpointed), leaves a valid snapshot behind, and a
// resume from that final snapshot still reproduces the tail.
func TestCheckpointPeriodic(t *testing.T) {
	b, err := workload.ByName("STRMATCH")
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "periodic.milsnap")
	cfg := Config{System: Mobile, Scheme: "mil", Benchmark: b, MemOpsPerThread: 300}

	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := cfg
	cp.Checkpoint = ckpt
	cp.CheckpointEvery = full.CPUCycles / 7
	if cp.CheckpointEvery < 1 {
		cp.CheckpointEvery = 1
	}
	periodic, err := Run(cp)
	if err != nil {
		t.Fatalf("periodic run: %v", err)
	}
	periodic.Loop = LoopStats{}
	f := *full
	f.Loop = LoopStats{}
	if !reflect.DeepEqual(&f, periodic) {
		t.Fatalf("periodic checkpointing perturbed the run:\n  plain:    %+v\n  periodic: %+v", &f, periodic)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("periodic run left no snapshot: %v", err)
	}
	cr := cfg
	cr.Resume = ckpt
	resumed, err := Run(cr)
	if err != nil {
		t.Fatalf("resume from final periodic snapshot: %v", err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resume from periodic snapshot diverges:\n  full:    %+v\n  resumed: %+v", full, resumed)
	}
}

// TestCheckpointInterrupt exercises the Interrupt flag (the SIGINT path):
// the run suspends at the next landed cycle and resumes identically.
func TestCheckpointInterrupt(t *testing.T) {
	b, err := workload.ByName("STRMATCH")
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "intr.milsnap")
	cfg := Config{System: Mobile, Scheme: "raw", Benchmark: b, MemOpsPerThread: 300}

	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var intr atomic.Bool
	intr.Store(true) // raised before the run: suspend at the first gate
	ci := cfg
	ci.Checkpoint = ckpt
	ci.Interrupt = &intr
	if _, err := Run(ci); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("interrupted run: want ErrCheckpointed, got %v", err)
	}
	cr := cfg
	cr.Resume = ckpt
	resumed, err := Run(cr)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Fatalf("resume after interrupt diverges:\n  full:    %+v\n  resumed: %+v", full, resumed)
	}
}

// TestResumeRejectsMismatchedConfig pins the safety property: a snapshot
// only resumes under the exact configuration that produced it.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	b, err := workload.ByName("STRMATCH")
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "strict.milsnap")
	cfg := Config{System: Mobile, Scheme: "mil", Benchmark: b, MemOpsPerThread: 300}
	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc := cfg
	cc.Checkpoint = ckpt
	cc.CheckpointAt = full.CPUCycles / 2
	if _, err := Run(cc); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("checkpointing run: want ErrCheckpointed, got %v", err)
	}

	mutations := map[string]func(*Config){
		"scheme":   func(c *Config) { c.Scheme = "raw" },
		"seed":     func(c *Config) { c.Seed = 1 },
		"ops":      func(c *Config) { c.MemOpsPerThread = 301 },
		"steplock": func(c *Config) { c.Steplock = true },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			bad := cfg
			mutate(&bad)
			bad.Resume = ckpt
			if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "config hash") {
				t.Fatalf("mismatched %s resume: want config-hash rejection, got %v", name, err)
			}
		})
	}

	t.Run("truncated", func(t *testing.T) {
		raw, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		short := filepath.Join(t.TempDir(), "short.milsnap")
		if err := os.WriteFile(short, raw[:len(raw)-3], 0o644); err != nil {
			t.Fatal(err)
		}
		cr := cfg
		cr.Resume = short
		if _, err := Run(cr); err == nil {
			t.Fatal("truncated snapshot resumed without error")
		}
	})
}
