package sim

import (
	"fmt"
	"reflect"
	"testing"

	"mil/internal/fault"
	"mil/internal/workload"
)

// runBoth executes the same configuration under the steplock reference
// loop and the event loop and returns both results with the loop
// counters (the one intended difference) zeroed.
func runBoth(t *testing.T, cfg Config) (step, event *Result) {
	t.Helper()
	ec := cfg
	ec.Steplock = false
	sc := cfg
	sc.Steplock = true
	event, err := Run(ec)
	if err != nil {
		t.Fatalf("event run: %v", err)
	}
	step, err = Run(sc)
	if err != nil {
		t.Fatalf("steplock run: %v", err)
	}
	if event.Loop.Steplock || !step.Loop.Steplock {
		t.Fatalf("Loop.Steplock mislabeled: event=%v step=%v", event.Loop.Steplock, step.Loop.Steplock)
	}
	if got, want := event.Loop.EventsFired+event.Loop.CyclesSkipped, event.CPUCycles; got != want {
		t.Fatalf("event loop covered %d cycles, run took %d", got, want)
	}
	step.Loop, event.Loop = LoopStats{}, LoopStats{}
	return step, event
}

// requireIdentical fails unless the two results match field for field.
func requireIdentical(t *testing.T, step, event *Result) {
	t.Helper()
	if reflect.DeepEqual(step, event) {
		return
	}
	if !reflect.DeepEqual(step.Mem, event.Mem) {
		t.Errorf("Mem stats diverge:\n  steplock: %+v\n  event:    %+v", step.Mem, event.Mem)
	}
	if step.Cache != event.Cache {
		t.Errorf("Cache stats diverge:\n  steplock: %+v\n  event:    %+v", step.Cache, event.Cache)
	}
	sm, em := *step, *event
	sm.Mem, em.Mem = nil, nil
	if !reflect.DeepEqual(&sm, &em) {
		t.Errorf("results diverge:\n  steplock: %+v\n  event:    %+v", sm, em)
	}
	t.FailNow()
}

// TestEventLoopMatchesSteplock is the tentpole differential: the event
// loop must reproduce the reference loop byte for byte across systems,
// schemes (including the fault/degrade paths), and seeds.
func TestEventLoopMatchesSteplock(t *testing.T) {
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
	if raceEnabled {
		// One mobile cell keeps the differential harness itself raced;
		// the full matrix is equivalence coverage, not concurrency
		// coverage, and server steplock runs cost seconds each even
		// without the detector's overhead.
		systems, cells, seeds = systems[1:], cells[:1], seeds[:1]
	}
	for _, system := range systems {
		for _, c := range cells {
			for _, seed := range seeds {
				name := fmt.Sprintf("%s/%s/seed%d", system, c.scheme, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					b, err := workload.ByName("STRMATCH")
					if err != nil {
						t.Fatal(err)
					}
					step, event := runBoth(t, Config{
						System: system, Scheme: c.scheme, Benchmark: b,
						MemOpsPerThread: 1500, Seed: seed, Fault: c.fault,
					})
					requireIdentical(t, step, event)
				})
			}
		}
	}
}

// TestEventLoopMatchesSteplockSaturated covers the cells where the
// controller queues run full and the cache hierarchy parks on refused
// retries (DESIGN.md §5.15): server HISTOGRAM and CG keep the read queue
// saturated and put writebacks on the bus.
func TestEventLoopMatchesSteplockSaturated(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	if raceEnabled {
		t.Skip("single-threaded loop-mode differential; nothing to race")
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
			for _, seed := range []uint64{0, 42} {
				name := fmt.Sprintf("%s/%s/seed%d", c.bench, scheme, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					b, err := workload.ByName(c.bench)
					if err != nil {
						t.Fatal(err)
					}
					step, event := runBoth(t, Config{
						System: Server, Scheme: scheme, Benchmark: b,
						MemOpsPerThread: c.ops, Seed: seed,
					})
					if event.Mem.Writes == 0 {
						t.Fatal("no write reached the bus; test exercises nothing")
					}
					requireIdentical(t, step, event)
				})
			}
		}
	}
}

// TestEventLoopMatchesSteplockPowerDown covers the power-down state
// machine: entry after the idle threshold, exit latency, and the
// residency accounting all have skip paths of their own.
func TestEventLoopMatchesSteplockPowerDown(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	if raceEnabled {
		t.Skip("single-threaded loop-mode differential; nothing to race")
	}
	b, err := workload.ByName("MM")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{"baseline", "mil"} {
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			step, event := runBoth(t, Config{
				System: Server, Scheme: scheme, Benchmark: b,
				MemOpsPerThread: 1500, PowerDown: true,
			})
			if event.Mem.PowerDownCycles == 0 {
				t.Fatal("power-down never engaged; test exercises nothing")
			}
			requireIdentical(t, step, event)
		})
	}
}

// TestEventLoopMatchesSteplockRetry covers the DDR4 write-CRC/CA-parity
// NACK-replay path, whose retry backoff contributes its own wake term.
func TestEventLoopMatchesSteplockRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	if raceEnabled {
		t.Skip("single-threaded loop-mode differential; nothing to race")
	}
	b, err := workload.ByName("GUPS")
	if err != nil {
		t.Fatal(err)
	}
	step, event := runBoth(t, Config{
		System: Server, Scheme: "baseline", Benchmark: b,
		MemOpsPerThread: 1200, WriteCRC: true, CAParity: true,
		Fault: fault.Config{BER: 5e-4, Seed: 3},
	})
	if event.Mem.Retries() == 0 {
		t.Fatal("no retries fired; test exercises nothing")
	}
	requireIdentical(t, step, event)
}

// TestEventLoopMatchesSteplockStuckLane covers the fault injector's
// stuck-lane mode: unlike the stochastic BER/burst modes it corrupts
// every driven transfer, so the degrade ladder and retry paths see a
// steady failure signal whose timing must survive the event loop's
// cycle skipping.
func TestEventLoopMatchesSteplockStuckLane(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	if raceEnabled {
		t.Skip("single-threaded loop-mode differential; nothing to race")
	}
	b, err := workload.ByName("STRMATCH")
	if err != nil {
		t.Fatal(err)
	}
	stuck := fault.Config{StuckPins: []int{5, 33}, StuckVal: true, Seed: 11}
	for _, scheme := range []string{"baseline", "mil-degrade"} {
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			cfg := Config{
				System: Server, Scheme: scheme, Benchmark: b,
				MemOpsPerThread: 1200, Fault: stuck,
			}
			step, event := runBoth(t, cfg)
			clean := cfg
			clean.Fault = fault.Config{}
			ref, err := Run(clean)
			if err != nil {
				t.Fatal(err)
			}
			ref.Loop = LoopStats{}
			if reflect.DeepEqual(ref, event) {
				t.Fatal("stuck lanes changed nothing; test exercises nothing")
			}
			requireIdentical(t, step, event)
		})
	}
}

// TestEventLoopSkipsCycles pins the point of the refactor: on an
// idle-heavy run the event loop must actually skip a large fraction of
// the timeline, not just match the reference loop.
func TestEventLoopSkipsCycles(t *testing.T) {
	b, err := workload.ByName("MM")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		System: Server, Scheme: "baseline", Benchmark: b,
		MemOpsPerThread: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loop.CyclesSkipped == 0 {
		t.Fatalf("event loop skipped nothing over %d cycles", res.CPUCycles)
	}
	frac := float64(res.Loop.CyclesSkipped) / float64(res.CPUCycles)
	if frac < 0.05 {
		t.Errorf("event loop skipped only %.1f%% of %d cycles", 100*frac, res.CPUCycles)
	}
}
