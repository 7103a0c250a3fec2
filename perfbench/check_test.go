package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mil/internal/sim"
	"mil/internal/trace"
	"mil/internal/workload"
)

func TestCheckerCountsEveryFailureKind(t *testing.T) {
	ref := &seedRef{Cells: map[string]string{"a": "1111", "b": "2222"}}
	c := newChecker(ref, false)
	if !c.cell("a", "1111", nil) {
		t.Fatal("matching digest failed")
	}
	c.cell("b", "2223", nil)                       // perturbed reference digest
	c.cell("missing", "3333", nil)                 // cell without a reference
	c.cell("a", "", errors.New("diverged"))        // the run errored
	c.derived("a/replay", "9999", nil, "1111")     // replay differs from its recording
	c.derived("a/record", "", errors.New("x"), "") // recording run errored
	if c.attempted != 6 || c.failed != 5 {
		t.Fatalf("attempted=%d failed=%d, want 6 and 5", c.attempted, c.failed)
	}
	if got := c.failRatio(); got != 5.0/6 {
		t.Errorf("failRatio = %g, want 5/6", got)
	}

	// Without a reference, a cell must still agree with itself.
	c = newChecker(nil, false)
	c.cell("a", "1111", nil)
	c.cell("a", "1112", nil)
	if c.failed != 1 {
		t.Errorf("nondeterministic cell: failed=%d, want 1", c.failed)
	}

	// The simulated ratios are pinned when a reference exists.
	c = newChecker(&seedRef{ZerosVsDBI: formatRatio(0.7), SimTimeVsDBI: formatRatio(1.01)}, false)
	c.ratios(0.7, 1.0101)
	if c.failed != 1 {
		t.Errorf("perturbed ratio: failed=%d, want 1", c.failed)
	}
}

// smallFresh runs one short write-free fresh cell, checks it, and returns
// the cell, its Result and its recorded trace.
func smallFresh(t *testing.T, e *env) (cell, *sim.Result, *trace.Trace) {
	t.Helper()
	b, err := workload.ByName("MM")
	if err != nil {
		t.Fatal(err)
	}
	c := cell{id: "fresh/test", cfg: sim.Config{System: sim.Server, Scheme: "baseline",
		Benchmark: b, MemOpsPerThread: 40, Seed: 3}}
	var tr *trace.Trace
	rc := c.cfg
	rc.RecordTrace = func(t *trace.Trace) { tr = t }
	res, err := sim.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mem.Writes != 0 {
		t.Fatalf("test cell put %d writes on the bus; it must be write-free", res.Mem.Writes)
	}
	e.check.cell(c.id, resultDigest(res), nil)
	return c, res, tr
}

func TestCorruptedTraceCountsAsFailedCell(t *testing.T) {
	e := &env{check: newChecker(nil, false), layer: &layerAcc{}}
	w := &freshWorkload{}
	c, res, tr := smallFresh(t, e)
	w.replayProbe(e, c, res, tr, time.Millisecond, 0, 0, -1)
	if e.check.failed != 0 || e.layer.replayCells != 1 {
		t.Fatalf("clean replay: failed=%d replayed=%d (%v)", e.check.failed, e.layer.replayCells, e.check.messages)
	}

	for name, corrupt := range map[string]func(tr *trace.Trace){
		"completion cycle": func(tr *trace.Trace) { tr.Events[len(tr.Events)/2].DoneAt++ },
		"dropped event":    func(tr *trace.Trace) { tr.Events = tr.Events[:len(tr.Events)-1] },
	} {
		e := &env{check: newChecker(nil, false), layer: &layerAcc{}}
		c, res, tr := smallFresh(t, e)
		bad := *tr
		bad.Events = append([]trace.Event(nil), bad.Events...)
		corrupt(&bad)
		w.replayProbe(e, c, res, &bad, time.Millisecond, 0, 0, -1)
		if e.check.failed != 1 || e.check.attempted < 2 || e.layer.replayCells != 0 {
			t.Errorf("%s: attempted=%d failed=%d replayed=%d, want one failure and no split (%v)",
				name, e.check.attempted, e.check.failed, e.layer.replayCells, e.check.messages)
		}
	}
}

func TestPerturbedReferenceFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fresh workload twice")
	}
	dir := t.TempDir()
	refPath := filepath.Join(dir, "reference.json")
	args := []string{"--workload", "fresh", "--seed", "5", "--seconds", "0.01"}

	var out, errOut bytes.Buffer
	if code := run(append(args, "--write-reference", refPath), &out, &errOut); code != 0 {
		t.Fatalf("recording run exited %d: %s%s", code, out.String(), errOut.String())
	}
	ref, err := loadReference(refPath)
	if err != nil {
		t.Fatal(err)
	}
	sr := ref["fresh"]["5"]
	id := sortedKeys(sr.Cells)[0]
	sr.Cells[id] = "0000000000000000"
	if err := ref.save(refPath); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	errOut.Reset()
	code := run(append(args, "--reference", refPath), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if code == 0 || res.Correct || res.Failed == 0 || res.Attempted == 0 {
		t.Errorf("perturbed digest of %s: exit %d, result %+v; want a non-zero exit and failed > 0", id, code, res)
	}
}

func TestParseProgress(t *testing.T) {
	c, err := parseProgress("run 17: mobile-lpddr3/mil-degrade/GUPS x=4 pd ber=0.002 ops=60 seed=123 (17ms, replay)")
	if err != nil {
		t.Fatal(err)
	}
	if c.sys != sim.Mobile || c.scheme != "mil-degrade" || c.bench != "GUPS" || c.x != 4 || !c.pd ||
		!c.ras || c.ber != 0.002 || c.ops != 60 || c.seed != 123 || c.ms != 17 || !c.replay {
		t.Errorf("parsed %+v", c)
	}
	c, err = parseProgress("run 1: server-ddr4/baseline/MM ops=60 seed=9 (0ms)")
	if err != nil || c.replay || c.ras || c.ms != 0 || c.sys != sim.Server {
		t.Errorf("parsed %+v, %v", c, err)
	}
	for _, bad := range []string{"", "run 1: server-ddr4/baseline ops=1 seed=1 (3ms)", "run 1: x/y/z ops=1 seed=1 (3ms)",
		"run 1: server-ddr4/a/MM ops=1 seed=1 (3s)"} {
		if _, err := parseProgress(bad); err == nil {
			t.Errorf("parseProgress(%q) accepted", bad)
		}
	}
}

func TestLoadGuardRefusesOversubscription(t *testing.T) {
	n := runtime.NumCPU()
	if err := loadGuard(options{workers: n}); err != nil {
		t.Errorf("nproc workers refused: %v", err)
	}
	for _, w := range []int{n + 1, 0} {
		if err := loadGuard(options{workers: w}); err == nil {
			t.Errorf("load guard accepted %d workers on nproc=%d", w, n)
		}
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "sweep", "--workers", "99999"}, &out, &errOut); code == 0 || out.Len() != 0 {
		t.Errorf("oversubscribed sweep: exit %d, stdout %q", code, out.String())
	}
}

func TestReferenceFileParses(t *testing.T) {
	ref, err := parseReference(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	for w, seeds := range ref {
		if _, err := newWorkload(w); err != nil {
			t.Errorf("reference for unknown workload %q", w)
		}
		for seed, sr := range seeds {
			if sr == nil || len(sr.Cells) == 0 {
				t.Errorf("%s seed %s: empty reference", w, seed)
			}
		}
	}
}
