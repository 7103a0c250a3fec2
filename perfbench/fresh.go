package main

import (
	"fmt"
	"time"

	"mil/internal/sim"
	"mil/internal/trace"
	"mil/internal/workload"
)

// freshMix is the benchmark mix of the fresh and sweep workloads, from
// cache-resident (MM, HISTOGRAM) to cache-thrashing (GUPS, CG). At the
// fresh budgets below every one of them but MM puts writes on the bus, so
// the controller's write queue and drain and the codecs' write data are
// exercised.
var freshMix = []string{"MM", "HISTOGRAM", "GUPS", "CG"}

// mixSystems are the two evaluated platforms.
var mixSystems = []sim.SystemKind{sim.Server, sim.Mobile}

// freshOps is a platform's per-thread memory-operation budget on fresh:
// the largest that keeps a pass under 10 s on the development host. The
// mobile platform runs 8 threads against the server's 32, so it gets twice
// the budget.
// perfbench/METRICS.md compares the host cost per memory operation and
// the layer split at these budgets against the simulator's default
// (sim.DefaultMemOps).
func freshOps(sys sim.SystemKind) int64 {
	if sys == sim.Mobile {
		return 3000
	}
	return 1500
}

// cell is one simulation of a workload's fixed cell list.
type cell struct {
	id  string
	cfg sim.Config
}

// mixBenchmarks builds one shared benchmark instance per mix name.
func mixBenchmarks(mix []string) (map[string]*workload.Benchmark, error) {
	out := map[string]*workload.Benchmark{}
	for _, n := range mix {
		b, err := workload.ByName(n)
		if err != nil {
			return nil, err
		}
		out[n] = b
	}
	return out, nil
}

// pairKey names a (system, benchmark) pair of the mix.
func pairKey(sys sim.SystemKind, bench string) string { return sys.String() + "/" + bench }

// paperRatios is the geomean, over the mix's (system, benchmark) pairs, of
// MiL's IO cost (zeros on DDR4, wire transitions on LPDDR3, as in Figure
// 17) and execution time (Figure 16) over the DBI baseline's.
func paperRatios(mix []string, baseline, mil map[string]*sim.Result) (zeros, time float64) {
	var zm, zb, tm, tb []float64
	for _, sys := range mixSystems {
		for _, b := range mix {
			k := pairKey(sys, b)
			base, m := baseline[k], mil[k]
			if base == nil || m == nil {
				// A missing pair (its cell failed) makes the ratio NaN.
				zm, zb, tm, tb = append(zm, 0), append(zb, 0), append(tm, 0), append(tb, 0)
				continue
			}
			zm, zb = append(zm, float64(m.Mem.CostUnits)), append(zb, float64(base.Mem.CostUnits))
			tm, tb = append(tm, float64(m.CPUCycles)), append(tb, float64(base.CPUCycles))
		}
	}
	return geomeanRatio(zm, zb), geomeanRatio(tm, tb)
}

// freshWorkload runs fresh sim.Run calls one after another from a single
// closed-loop client: both platforms × the mix × {baseline, mil}.
type freshWorkload struct {
	list        []cell
	zeros, time float64
	ratiosSet   bool // zeros and time come from the first pass
	codec       codecProbe
}

func (w *freshWorkload) cells() int                            { return len(w.list) }
func (w *freshWorkload) ratios() (float64, float64)            { return w.zeros, w.time }
func (w *freshWorkload) layerMetrics(e *env) map[string]metric { return e.layer.metrics() }

// setup builds the cell list and benchmarks.
func (w *freshWorkload) setup(e *env) error {
	benches, err := mixBenchmarks(freshMix)
	if err != nil {
		return err
	}
	w.list = nil
	for _, sys := range mixSystems {
		for _, b := range freshMix {
			for _, s := range []string{"baseline", "mil"} {
				w.list = append(w.list, cell{
					id: fmt.Sprintf("fresh/%s/%s", pairKey(sys, b), s),
					cfg: sim.Config{System: sys, Scheme: s, Benchmark: benches[b],
						MemOpsPerThread: freshOps(sys), Seed: e.opts.seed},
				})
			}
		}
	}
	w.ratiosSet = false
	return nil
}

func (w *freshWorkload) pass(e *env) (passResult, error) {
	var pr passResult
	var probes time.Duration
	baseline, mil := map[string]*sim.Result{}, map[string]*sim.Result{}
	start := time.Now()
	for _, c := range w.list {
		cellSpan := e.sp.begin("cell", c.id, -1)
		var m0, b0 uint64
		if e.sp != nil {
			m0, b0 = heapCounters()
		}
		callSpan := e.sp.begin("sim.fresh", c.id, cellSpan)
		t0 := time.Now()
		res, err := sim.Run(c.cfg)
		d := time.Since(t0)
		e.sp.end(callSpan)
		if e.sp != nil {
			m1, b1 := heapCounters()
			e.layer.mallocs += m1 - m0
			e.layer.allocBytes += b1 - b0
			e.layer.allocCells++
		}
		pr.cellMS = append(pr.cellMS, float64(d.Nanoseconds())/1e6)
		if e.check.cell(c.id, digestOrEmpty(res), err) {
			pr.instructions += res.Instructions
			k := pairKey(c.cfg.System, c.cfg.Benchmark.Name)
			if c.cfg.Scheme == "mil" {
				mil[k] = res
			} else {
				baseline[k] = res
			}
			if e.sp != nil {
				p0 := time.Now()
				w.probe(e, c, res, d, cellSpan)
				probes += time.Since(p0)
			}
		}
		e.sp.end(cellSpan)
	}
	pr.wall = time.Since(start) - probes
	if !w.ratiosSet {
		w.zeros, w.time = paperRatios(freshMix, baseline, mil)
		w.ratiosSet = true
	}
	return pr, nil
}

// probe attributes one fresh cell's host time to its layers: the streams
// drained alone (workload), the codecs timed on the cell's payloads
// (code), a same-config replay of the cell's recorded trace (the memory
// back end: memctrl, dram, code), and the rest (cpu, cache and the sched
// event core). The recording doubles as an output check: recording must
// not change the Result. So must the replay of a cell that put no write on
// the bus. Replay is not exact once a trace carries writes
// (perfbench/METRICS.md), so a write-carrying cell's replay is timed but
// not compared, and one that trips the divergence fence stays out of the
// split.
func (w *freshWorkload) probe(e *env, c cell, res *sim.Result, fresh time.Duration, parent int) {
	a := e.layer
	a.freshNS += fresh.Nanoseconds()
	a.freshCells++
	a.eventsFired += res.Loop.EventsFired
	a.cyclesSkipped += res.Loop.CyclesSkipped
	a.eventNS += fresh.Nanoseconds()
	a.addResult(res)

	sp := e.sp.begin("workload.gen", c.id, parent)
	t0 := time.Now()
	memOps, err := drainStreams(c.cfg.Benchmark, c.cfg.System, c.cfg.MemOpsPerThread, c.cfg.Seed)
	gen := time.Since(t0)
	e.sp.end(sp)
	if err != nil {
		e.check.derived(c.id+"/streams", "", err, "")
		return
	}
	a.genNS += gen.Nanoseconds()
	a.memOps += memOps
	a.genCells++

	// One recording run gives the trace to replay; recording itself is
	// priced on sweep, where the trace layer works.
	var tr *trace.Trace
	rc := c.cfg
	rc.RecordTrace = func(t *trace.Trace) { tr = t }
	sp = e.sp.begin("trace.record", c.id, parent)
	rres, err := sim.Run(rc)
	e.sp.end(sp)
	if !e.check.derived(c.id+"/trace.record", digestOrEmpty(rres), err, e.check.first[c.id]) || tr == nil {
		return
	}
	est := w.codec.run(e, c.id, parent, payloadsOf(tr, c.cfg.Benchmark), res.Mem.CodecBursts)
	w.replayProbe(e, c, res, tr, fresh, gen, est, parent)
}

// replayProbe replays a fresh cell's recorded trace under the cell's own
// configuration and splits the cell's host time fresh between the layers:
// the replay is the memory back end (code's share est of it, in ns), gen
// the stream drain, and the rest cpu_cache. A cell that put no write on the
// bus must replay to its fresh Result, so a corrupted or divergent trace
// counts as a failed cell; a write-carrying replay that trips the fence is
// left out of the split.
func (w *freshWorkload) replayProbe(e *env, c cell, res *sim.Result, tr *trace.Trace, fresh, gen time.Duration, est float64, parent int) {
	a := e.layer
	pc := c.cfg
	pc.ReplayTrace = tr
	sp := e.sp.begin("sim.replay", c.id, parent)
	t0 := time.Now()
	pres, err := sim.Run(pc)
	rep := time.Since(t0)
	e.sp.end(sp)
	a.splitProbes++
	switch {
	case res.Mem.Writes == 0:
		if !e.check.derived(c.id+"/replay", digestOrEmpty(pres), err, e.check.first[c.id]) {
			return
		}
	case err != nil:
		a.fencedReplays++
		return
	}
	a.addReplay(rep, res, est)

	self := a.addCPUCache(fresh, rep, gen)
	a.shareDen += float64(fresh.Nanoseconds())
	a.share("sim", float64(fresh.Nanoseconds()))
	a.share("workload", float64(gen.Nanoseconds()))
	a.share("cpu_cache", float64(self.Nanoseconds()))
	a.share("memctrl", float64(rep.Nanoseconds())-est)
	a.share("code", est)
}

// digestOrEmpty is resultDigest for a possibly nil Result (failed runs).
func digestOrEmpty(res *sim.Result) string {
	if res == nil {
		return ""
	}
	return resultDigest(res)
}
