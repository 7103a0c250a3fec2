// Command perfbench is the simulator's benchmark. It runs one named
// workload with a seed, checks every simulated output against shipped
// reference digests and against itself, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The simulator is driven only through its public package functions
// (sim.Run, experiments.Runner, workload benchmarks, the code codecs, the
// trace container and store); every timing is taken around those calls,
// from outside. See BENCHMARK.json at the repository root and
// perfbench/METRICS.md for the workloads, the metric definitions and the
// layer map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fresh --seed 1 --seconds 50 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Paper reference values (EXPERIMENTS.md, headline table): MiL cuts bus
// zeros by 49% against DBI, at no more than 2% slowdown on average.
const (
	paperZerosVsDBI   = 0.51
	paperSimTimeVsDBI = 1.02
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median. The last set-up state is the one the timed phase uses. A set-up
// (the cell list and the benchmarks) takes well under a millisecond, so
// many repeats cost nothing and steady the median.
const setupRepeats = 101

// minCellSamples is the fewest cell samples an untraced run collects, even
// past --seconds: enough for cell_ms_tail to be p90 on every workload and
// host speed, so a fast or slow host cannot move it to another rung (fresh
// collects 16 samples a pass, sweep about 150).
const minCellSamples = 100

// minPasses is the fewest timed passes an untraced run makes, so that
// wall_s can drop its fastest and its slowest pass.
const minPasses = 5

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// options are the command-line settings.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	workers   int
	refPath   string
	writeRef  string
	spansPath string
}

// env is the state shared by a workload and the run loop.
type env struct {
	opts  options
	check *checker
	sp    *spans    // non-nil only during a traced pass
	layer *layerAcc // per-layer accumulators (traced runs)
}

// passResult is what one timed pass over the fixed cell set measured.
type passResult struct {
	wall         time.Duration // host time of the timed calls (untraced) or of the pass minus probes (traced)
	cellMS       []float64     // host time of each cell
	instructions int64         // simulated instructions whose results were delivered
}

// workloadImpl is one benchmark workload.
type workloadImpl interface {
	// setup builds the workload's state from scratch (cell list,
	// benchmarks, and whatever the timed phase needs ready).
	setup(e *env) error
	// pass runs every cell once; with e.sp set it records spans and runs
	// the per-layer attribution probes.
	pass(e *env) (passResult, error)
	// cells is the number of cells in one pass.
	cells() int
	// ratios returns the simulated zeros and execution-time ratios of MiL
	// against the DBI baseline.
	ratios() (zeros, time float64)
	// layerMetrics finishes the per-layer metrics.
	layerMetrics(e *env) map[string]metric
}

func newWorkload(name string) (workloadImpl, error) {
	switch name {
	case "fresh":
		return &freshWorkload{}, nil
	case "sweep":
		return &sweepWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fresh or sweep)", name)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := loadGuard(opts); err != nil {
		fmt.Fprintln(stderr, "perfbench: refusing to run:", err)
		return 2
	}
	w, err := newWorkload(opts.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	ref, err := loadReference(opts.refPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	seedRef := ref[opts.workload][strconv.FormatUint(opts.seed, 10)]
	e := &env{opts: opts, check: newChecker(seedRef, opts.writeRef != "")}
	if opts.trace {
		e.layer = &layerAcc{}
	}

	var setupS []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := w.setup(e); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	var (
		walls, tracedWalls []float64
		passRSS            []float64
		cellMS             []float64
		insts              []int64
		all                = newSpans()
	)
	start := time.Now()
	for n := 0; ; n++ {
		traced := opts.trace && n%2 == 1
		e.sp = nil
		if traced {
			e.sp = all
		}
		perPass := resetPeakRSS()
		pr, err := w.pass(e)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if traced {
			tracedWalls = append(tracedWalls, pr.wall.Seconds())
		} else {
			walls = append(walls, pr.wall.Seconds())
			if perPass {
				passRSS = append(passRSS, peakRSSMB())
			}
			cellMS = append(cellMS, pr.cellMS...)
			insts = append(insts, pr.instructions)
		}
		enough := len(walls) > 0 && len(tracedWalls) > 0
		if !opts.trace {
			enough = len(walls) >= minPasses && len(cellMS) >= minCellSamples
		}
		// Stop at the pass boundary nearest to --seconds: past it, or
		// when the next pass would end more than half of it past.
		elapsed := time.Since(start).Seconds()
		if enough && elapsed+mean(walls)/2 >= opts.seconds {
			break
		}
	}
	e.sp = nil

	zeros, simTime := w.ratios()
	e.check.ratios(zeros, simTime)

	var metrics map[string]metric
	var notes []string
	if opts.trace {
		metrics = w.layerMetrics(e)
		overhead := median(tracedWalls)/median(walls) - 1
		metrics["bench.trace_overhead"] = metric{overhead, "fraction"}
		if err := all.writePerfetto(opts.spansPath); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
		notes = append(notes, fmt.Sprintf("spans: %d written to %s (Perfetto / chrome://tracing)", len(all.list), opts.spansPath))
		if a := e.layer; a.splitProbes > 0 {
			notes = append(notes, fmt.Sprintf("layer split over %d of %d probed fresh cells; %d write-carrying replays tripped the divergence fence and stay out of it",
				a.cpuCells, a.splitProbes, a.fencedReplays))
		}
		if names := sortedKeys(e.layer.unresolvedCodecs); len(names) > 0 {
			notes = append(notes, "codecs with no standalone implementation (bursts counted, not timed): "+strings.Join(names, " "))
		}
		self := selfTimes(all.list)
		for _, name := range sortedKeys(self) {
			notes = append(notes, fmt.Sprintf("self time %-16s %10.1f ms", name, float64(self[name].Microseconds())/1e3))
		}
	} else {
		metrics = map[string]metric{}
		tailP, ok := tailPercentile(len(cellMS))
		tail := math.NaN()
		if ok {
			tail = quantile(cellMS, tailP/100)
		}
		kept := trimmedPasses(walls)
		var keptInsts int64
		var keptWall float64
		for _, i := range kept {
			keptInsts += insts[i]
			keptWall += walls[i]
		}
		metrics["setup_s"] = metric{median(setupS), "s"}
		metrics["wall_s"] = metric{keptWall / float64(len(kept)), "s"}
		metrics["sim_minst_per_s"] = metric{float64(keptInsts) / 1e6 / keptWall, "Minst/s"}
		metrics["cell_ms_p50"] = metric{median(cellMS), "ms"}
		metrics["cell_ms_tail"] = metric{tail, "ms"}
		rss, rssNote := peakRSSMB(), "peak_rss_mb is the process's peak (the kernel keeps no per-pass peak here)"
		if len(passRSS) == len(walls) {
			rss = median(passRSS)
			rssNote = fmt.Sprintf("peak_rss_mb is the median of the passes' peaks (%s MB)", joinFloats(passRSS))
		}
		metrics["peak_rss_mb"] = metric{rss, "MB"}
		metrics["zeros_vs_dbi"] = metric{zeros, "ratio"}
		metrics["sim_time_vs_dbi"] = metric{simTime, "ratio"}
		notes = append(notes,
			fmt.Sprintf("cell_ms_tail is p%g over %d cell samples (p50 over the same %d)", tailP, len(cellMS), len(cellMS)),
			fmt.Sprintf("wall_s is the mean of %d of %d passes over %d cells, the fastest and slowest dropped (%s s)",
				len(kept), len(walls), w.cells(), joinFloats(walls)),
			fmt.Sprintf("setup_s is the median of %d set-ups (%.4g to %.4g s)", len(setupS), slices.Min(setupS), slices.Max(setupS)),
			rssNote,
			fmt.Sprintf("zeros_vs_dbi %.4f vs paper %.2f (error %+.1f%%); sim_time_vs_dbi %.4f vs paper <= %.2f (error %+.1f%%) — simulated, checked against the paper's simulation only",
				zeros, paperZerosVsDBI, 100*(zeros/paperZerosVsDBI-1), simTime, paperSimTimeVsDBI, 100*(simTime/paperSimTimeVsDBI-1)))
	}
	notes = append(notes, fmt.Sprintf("fail_ratio: %d failed of %d attempted", e.check.failed, e.check.attempted))

	meta := map[string]any{
		"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds, "trace": opts.trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": commitID(), "clients": 1, "workers": opts.workers,
		"cells_per_pass": w.cells(), "cell_samples": len(cellMS), "passes": len(walls),
		"traced_passes": len(tracedWalls), "setups": len(setupS),
		"reference": e.check.ref != nil,
	}
	metaJSON, _ := json.Marshal(meta)
	fmt.Fprintf(stdout, "meta %s\n", metaJSON)
	for _, n := range notes {
		fmt.Fprintln(stdout, "note", n)
	}
	for _, name := range sortedKeys(metrics) {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	// fail_ratio stays out of the JSON metrics (it is 0 on a good run, and
	// bounds are shares of a median); the result's failed and attempted
	// fields carry it.
	fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", "fail_ratio", e.check.failRatio(), "fraction")
	for _, m := range e.check.messages {
		fmt.Fprintln(stdout, "FAIL", m)
	}

	if opts.writeRef != "" {
		if err := writeReference(opts, e.check.record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}

	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN; a value that could not be computed comes
			// from a failed cell, which the failed count already reports.
			metrics[name] = metric{0, m.Unit}
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{e.check.failed == 0, e.check.attempted, e.check.failed, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if e.check.failed > 0 || e.check.attempted == 0 {
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var o options
	var traceFlag int
	fl.StringVar(&o.workload, "workload", "", "workload to run: fresh or sweep")
	fl.Uint64Var(&o.seed, "seed", 1, "workload seed (flows into sim.Config.Seed / Runner.BaseSeed only)")
	fl.Float64Var(&o.seconds, "seconds", 50, "how long the timed phase measures")
	fl.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	fl.IntVar(&o.workers, "workers", runtime.NumCPU(), "sweep Runner.Workers (never more than nproc)")
	fl.StringVar(&o.refPath, "reference", "", "reference digest file (default: the copy built into the binary)")
	fl.StringVar(&o.writeRef, "write-reference", "", "record this run's digests for its workload and seed into this file")
	if err := fl.Parse(args); err != nil {
		return o, err
	}
	if fl.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fl.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return o, fmt.Errorf("--trace %d: want 0 or 1", traceFlag)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds %g: want > 0", o.seconds)
	}
	o.spansPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
	return o, nil
}

// loadGuard refuses load shapes that would measure the host's scheduler
// instead of the simulator: more sweep workers than the host has
// processors. Clients cannot oversubscribe: every workload is a single
// closed-loop client.
func loadGuard(o options) error {
	if nproc := runtime.NumCPU(); o.workers < 1 || o.workers > nproc {
		return fmt.Errorf("%d sweep workers on a host with nproc=%d (want 1..nproc)", o.workers, nproc)
	}
	return nil
}

// writeReference merges this run's digests into the reference file.
func writeReference(o options, rec *seedRef) error {
	ref, err := loadReference(o.writeRef)
	if err != nil {
		return err
	}
	if ref[o.workload] == nil {
		ref[o.workload] = map[string]*seedRef{}
	}
	ref[o.workload][strconv.FormatUint(o.seed, 10)] = rec
	return ref.save(o.writeRef)
}

// joinFloats renders samples for a note line.
func joinFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

// resetPeakRSS resets the kernel's record of this process's peak resident
// set size, so that peakRSSMB reads the peak since the call: the peak of
// one pass. It reports false where the kernel does not allow it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set size since it started or
// since the last resetPeakRSS (VmHWM; getrusage where /proc cannot be
// read, which knows only the peak since the start).
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// commitID names the simulator source being measured: the VCS revision
// stamped into the binary when it was built inside a git checkout, else a
// digest of the simulator's Go sources and module file.
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil)[:8])
}
