package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"mil/internal/experiments"
	"mil/internal/fault"
	"mil/internal/sim"
	"mil/internal/trace"
	"mil/internal/workload"
)

// sweepOps is the sweep's per-thread memory-operation budget: the whole
// figure sweep on the fresh mix must fit a few seconds.
const sweepOps = 120

// sweepCell is one line of Runner.Progress: a cell the runner delivered,
// with the host time it reported.
type sweepCell struct {
	label   string
	sys     sim.SystemKind
	scheme  string
	bench   string
	x       int
	pd      bool
	ber     float64
	ras     bool
	ops     int64
	seed    uint64
	ms      float64
	replay  bool
	arrival time.Time
}

// parseProgress parses one Runner.Progress line:
//
//	run 12: server-ddr4/mil/GUPS x=4 pd ber=0.001 ops=60 seed=42 (17ms, replay)
func parseProgress(line string) (sweepCell, error) {
	var c sweepCell
	_, rest, ok := strings.Cut(line, ": ")
	open := strings.LastIndex(rest, " (")
	if !ok || open < 0 || !strings.HasSuffix(rest, ")") {
		return c, fmt.Errorf("unparsable progress line %q", line)
	}
	timing := rest[open+2 : len(rest)-1]
	c.replay = strings.HasSuffix(timing, ", replay")
	ms, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(timing, ", replay"), "ms"), 64)
	if err != nil {
		return c, fmt.Errorf("progress line %q: %v", line, err)
	}
	c.ms = ms
	fields := strings.Fields(rest[:open])
	if len(fields) < 3 {
		return c, fmt.Errorf("progress line %q: too few fields", line)
	}
	c.label = strings.Join(fields[:len(fields)-2], " ")
	parts := strings.Split(fields[0], "/")
	if len(parts) != 3 {
		return c, fmt.Errorf("progress line %q: bad cell %q", line, fields[0])
	}
	switch parts[0] {
	case sim.Server.String():
		c.sys = sim.Server
	case sim.Mobile.String():
		c.sys = sim.Mobile
	default:
		return c, fmt.Errorf("progress line %q: unknown system %q", line, parts[0])
	}
	c.scheme, c.bench = parts[1], parts[2]
	for _, f := range fields[1:] {
		k, v, _ := strings.Cut(f, "=")
		switch k {
		case "x":
			c.x, err = strconv.Atoi(v)
		case "pd":
			c.pd = true
		case "ber":
			c.ras = true
			c.ber, err = strconv.ParseFloat(v, 64)
		case "ops":
			c.ops, err = strconv.ParseInt(v, 10, 64)
		case "seed":
			c.seed, err = strconv.ParseUint(v, 10, 64)
		default:
			err = fmt.Errorf("unknown field %q", f)
		}
		if err != nil {
			return c, fmt.Errorf("progress line %q: %v", line, err)
		}
	}
	return c, nil
}

// config rebuilds the cell's simulator configuration the way the runner
// documents it (every field the progress line carries).
func (c sweepCell) config(b *workload.Benchmark) sim.Config {
	cfg := sim.Config{System: c.sys, Scheme: c.scheme, Benchmark: b,
		MemOpsPerThread: c.ops, LookaheadX: c.x, PowerDown: c.pd, Seed: c.seed}
	if c.ras {
		cfg.Fault = fault.Config{BER: c.ber}
		cfg.WriteCRC, cfg.CAParity = true, true
	}
	return cfg
}

// frontEnd names the inputs that fix a cell's instruction count: every
// scheme, look-ahead, power-down and link setting retires the same
// instructions for one (system, benchmark, budget, seed).
func (c sweepCell) frontEnd() string {
	return fmt.Sprintf("%s/%s/%d/%d", c.sys, c.bench, c.ops, c.seed)
}

// progressLog collects Runner.Progress lines with their arrival times.
type progressLog struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	lines []string
	at    []time.Time
}

func (p *progressLog) Write(b []byte) (int, error) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buf.Write(b)
	for {
		line, err := p.buf.ReadString('\n')
		if err != nil {
			p.buf.WriteString(line) // keep the partial line
			break
		}
		p.lines = append(p.lines, strings.TrimSuffix(line, "\n"))
		p.at = append(p.at, now)
	}
	return len(b), nil
}

// sweepWorkload submits the whole figure sweep (experiments.Generators on
// the fresh mix) from one client to a fresh Runner with Workers = nproc and
// a fresh trace store.
type sweepWorkload struct {
	benches     map[string]*workload.Benchmark
	ncells      int
	zeros, time float64
	insts       map[string]int64 // front end -> instructions, kept across set-ups
	probed      bool
}

func (w *sweepWorkload) cells() int                 { return w.ncells }
func (w *sweepWorkload) ratios() (float64, float64) { return w.zeros, w.time }

// setup builds the suite's benchmarks. The cell count and the simulated
// ratios come from the first pass.
func (w *sweepWorkload) setup(e *env) error {
	w.benches = map[string]*workload.Benchmark{}
	for _, n := range workload.Names() {
		b, err := workload.ByName(n)
		if err != nil {
			return err
		}
		w.benches[n] = b
	}
	if w.insts == nil {
		w.insts = map[string]int64{}
	}
	w.ncells = 0
	return nil
}

// sweep runs one full sweep and checks its tables; stats receives the
// runner when the caller wants its counters.
func (w *sweepWorkload) sweep(e *env, stats func(*experiments.Runner, time.Duration)) ([]*experiments.Table, []sweepCell, error) {
	r := experiments.NewRunner(sweepOps)
	r.Suite = freshMix
	r.Workers = e.opts.workers
	r.BaseSeed = e.opts.seed
	r.Traces = trace.NewStore()
	log := &progressLog{}
	r.Progress = log
	t0 := time.Now()
	tables, err := r.All()
	wall := time.Since(t0)
	gens := experiments.Generators()
	if err != nil {
		for _, g := range gens {
			e.check.cell("sweep/"+g.ID, "", err)
		}
		return nil, nil, nil
	}
	for i, t := range tables {
		id := "sweep/" + t.ID
		if i < len(gens) {
			id = "sweep/" + gens[i].ID
		}
		e.check.cell(id, textDigest(t.String()), nil)
	}
	if len(tables) != len(gens) {
		e.check.cell("sweep/table-count", "", fmt.Errorf("%d tables for %d generators", len(tables), len(gens)))
	}
	cells := make([]sweepCell, 0, len(log.lines))
	for i, line := range log.lines {
		c, err := parseProgress(line)
		if err != nil {
			return nil, nil, err
		}
		c.arrival = log.at[i]
		cells = append(cells, c)
	}
	if stats != nil {
		stats(r, wall)
	}
	return tables, cells, nil
}

func (w *sweepWorkload) pass(e *env) (passResult, error) {
	var pr passResult
	var m0, b0 uint64
	if e.sp != nil {
		m0, b0 = heapCounters()
	}
	passSpan := e.sp.begin("experiments.sweep", "sweep", -1)
	var wall time.Duration
	tables, cells, err := w.sweep(e, func(r *experiments.Runner, d time.Duration) {
		wall = d
		if e.sp != nil {
			w.runnerStats(e, r, d)
		}
	})
	e.sp.end(passSpan)
	if err != nil {
		return pr, err
	}
	if e.sp != nil {
		m1, b1 := heapCounters()
		e.layer.mallocs += m1 - m0
		e.layer.allocBytes += b1 - b0
		e.layer.allocCells += len(cells)
	}
	pr.wall = wall
	if w.ncells == 0 {
		w.ncells = len(cells)
		w.zeros, w.time = sweepRatios(tables)
	}
	for i, c := range cells {
		pr.cellMS = append(pr.cellMS, c.ms)
		name := "sim.fresh"
		if c.replay {
			name = "sim.replay"
		}
		e.sp.add(name, fmt.Sprintf("sweep/%d", i), passSpan, c.arrival.Add(-time.Duration(c.ms*float64(time.Millisecond))), c.arrival)
		if e.sp != nil {
			if c.replay {
				e.layer.replayNS += int64(c.ms * 1e6)
				e.layer.replayCells++
			} else {
				e.layer.freshNS += int64(c.ms * 1e6)
				e.layer.freshCells++
			}
		}
	}
	// Instruction counts are looked up after the timed sweep: one plain
	// simulation per front end not seen before (cached across passes).
	for _, c := range cells {
		n, err := w.instructions(c)
		if err != nil {
			return pr, err
		}
		pr.instructions += n
	}
	if e.sp != nil && !w.probed {
		w.probeTraces(e, cells)
	}
	return pr, nil
}

// instructions returns the simulated instructions behind a delivered cell.
func (w *sweepWorkload) instructions(c sweepCell) (int64, error) {
	key := c.frontEnd()
	if n, ok := w.insts[key]; ok {
		return n, nil
	}
	b := w.benches[c.bench]
	if b == nil {
		return 0, fmt.Errorf("sweep cell %q: unknown benchmark", c.label)
	}
	cfg := sim.Config{System: c.sys, Scheme: "baseline", Benchmark: b, MemOpsPerThread: c.ops, Seed: c.seed}
	res, err := sim.Run(cfg)
	if err != nil {
		return 0, fmt.Errorf("sweep cell %q: instruction count: %v", c.label, err)
	}
	w.insts[key] = res.Instructions
	return res.Instructions, nil
}

// runnerStats folds one traced sweep's runner and store counters in.
func (w *sweepWorkload) runnerStats(e *env, r *experiments.Runner, wall time.Duration) {
	a := e.layer
	runs, simTime := r.Stats()
	hits, replayTime := r.TraceStats()
	chits, trials, _ := r.ClusterStats()
	a.freshSims += runs
	a.replays += hits
	a.busyNS += (simTime + replayTime).Nanoseconds()
	a.capacityNS += int64(r.Workers) * wall.Nanoseconds()
	a.experimentPasses++
	a.storeBytes += r.Traces.SizeBytes()
	a.hits += hits
	a.clusterTrials += trials
	a.clusterHits += chits
	a.recordedStreams += int64(r.Traces.Streams())
	a.storePasses++
}

// probeTraces measures the trace layer once per run on the sweep's clean
// front ends: a recording run against a plain run of the same cell, and
// the container round trip of the recorded trace.
func (w *sweepWorkload) probeTraces(e *env, cells []sweepCell) {
	w.probed = true
	seen := map[string]bool{}
	for _, c := range cells {
		if c.ras || c.pd || c.x != 0 || seen[c.frontEnd()] {
			continue
		}
		seen[c.frontEnd()] = true
		id := "probe/" + c.frontEnd()
		cfg := c.config(w.benches[c.bench])
		cfg.Scheme = "baseline"
		parent := e.sp.begin("probe", id, -1)
		recordProbe(e, id, parent, cfg, "")
		e.sp.end(parent)
	}
}

func (w *sweepWorkload) layerMetrics(e *env) map[string]metric {
	a := e.layer
	// On sweep the simulations run inside the runner's pool, so their
	// front end / back end split is not attributed here. What is: the
	// pool capacity the runner left outside sim.Run (scheduling,
	// singleflight waits, table assembly) and the recording overhead of
	// every stream the store admitted.
	a.shareDen = float64(a.capacityNS)
	a.share("sim", float64(a.busyNS))
	a.share("experiments", float64(a.capacityNS-a.busyNS))
	if a.records > 0 {
		a.share("trace", float64(a.recordedStreams)*float64(a.recordNS)/float64(a.records))
	}
	return a.metrics()
}

// sweepRatios reads MiL's geomean zeros (Figure 17) and execution time
// (Figure 16) against the baseline from the rendered tables, combining the
// two platforms by geomean (each platform averages the same suite).
func sweepRatios(tables []*experiments.Table) (zeros, time float64) {
	pick := func(id string) float64 {
		for _, t := range tables {
			if t.ID != id {
				continue
			}
			col := -1
			for i, h := range t.Header {
				if h == "mil" {
					col = i
				}
			}
			for _, row := range t.Rows {
				if len(row) > col && col > 0 && row[0] == "GEOMEAN" {
					v, err := strconv.ParseFloat(row[col], 64)
					if err == nil {
						return v
					}
				}
			}
		}
		return math.NaN()
	}
	zeros = geomean([]float64{pick("Figure 17 (" + sim.Server.String() + ")"), pick("Figure 17 (" + sim.Mobile.String() + ")")})
	time = geomean([]float64{pick("Figure 16(a)"), pick("Figure 16(b)")})
	return zeros, time
}
