package main

import (
	"runtime"
	"time"

	"mil/internal/bitblock"
	"mil/internal/code"
	"mil/internal/cpu"
	"mil/internal/scheme"
	"mil/internal/sim"
	"mil/internal/trace"
	"mil/internal/workload"
)

// layerAcc accumulates the per-layer counts and host times of a traced run.
// Times are summed over the traced cells; the metrics divide by the cell
// counts, so every per-cell figure is a mean.
type layerAcc struct {
	// sim: host time of the timed calls, and heap traffic around them.
	// replayCmds are the column commands of the replayed cells.
	freshNS, replayNS       int64
	freshCells, replayCells int
	replayCmds              int64
	mallocs, allocBytes     uint64
	allocCells              int

	// sched (fresh Results).
	eventsFired, cyclesSkipped, eventNS int64

	// workload: the cell's streams drained alone.
	genNS, memOps int64
	genCells      int

	// cpu_cache: fresh minus same-config replay minus stream drain.
	// splitProbes counts the fresh cells given a same-config replay,
	// fencedReplays those whose write-carrying replay tripped the fence.
	cpuCacheNS                 int64
	cpuCells                   int
	splitProbes, fencedReplays int

	// Simulated statistics of the traced cells' Results.
	l1Hits, l1Misses, l2Hits, l2Misses, writebacks int64
	instructions, cpuCycles                        int64
	columnCmds, retries, acts                      int64
	busUtil                                        float64
	resultCells                                    int

	// code: timed on each cell's real payloads, per codec the cell used.
	encNS, decNS, costNS float64
	codeOps              int64
	codeMallocs          uint64
	bursts               int64
	codeEstNS            float64 // Σ bursts × encode ns over the replayed cells
	codeCells            int
	unresolvedCodecs     map[string]bool // codec names with no standalone codec

	// trace.
	recordNS                         int64 // recording run minus plain run
	records                          int
	encodeNS, decodeNS, traceBytes   int64
	traces                           int
	storeBytes, recordedStreams      int64
	hits, clusterTrials, clusterHits int64
	storePasses                      int

	// experiments.
	freshSims, replays int64
	busyNS, capacityNS int64
	experimentPasses   int

	// Host-time shares of the timed work.
	shares   map[string]float64 // layer -> host ns
	shareDen float64            // host ns of the timed work
}

// heapCounters reads the cumulative allocation counters.
func heapCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// addResult folds a cell's simulated statistics into the accumulator.
func (a *layerAcc) addResult(res *sim.Result) {
	a.resultCells++
	a.l1Hits += res.Cache.L1Hits
	a.l1Misses += res.Cache.L1Misses
	a.l2Hits += res.Cache.L2Hits
	a.l2Misses += res.Cache.L2Misses
	a.writebacks += res.Cache.Writebacks
	a.instructions += res.Instructions
	a.cpuCycles += res.CPUCycles
	a.columnCmds += res.Mem.Reads + res.Mem.Writes
	a.retries += res.Mem.ReadRetries + res.Mem.WriteRetries
	a.acts += res.Mem.Activates
	a.busUtil += res.BusUtilization()
}

// addReplay records a replay of a cell whose Result is res, and the cell's
// estimated code time inside it.
func (a *layerAcc) addReplay(d time.Duration, res *sim.Result, codeNS float64) {
	a.replayNS += d.Nanoseconds()
	a.replayCells++
	a.replayCmds += res.Mem.Reads + res.Mem.Writes
	a.codeEstNS += codeNS
}

// addCPUCache records a fresh cell's cpu+cache self time: the fresh run
// minus a replay of the same configuration (the memory back end alone)
// minus the streams drained alone (the workload generators). What remains
// is the cpu and cache models and the sched event core driving them.
func (a *layerAcc) addCPUCache(fresh, replay, gen time.Duration) time.Duration {
	self := fresh - replay - gen
	a.cpuCacheNS += self.Nanoseconds()
	a.cpuCells++
	return self
}

// share adds host time to a layer's share of the timed work.
func (a *layerAcc) share(layer string, ns float64) {
	if a.shares == nil {
		a.shares = map[string]float64{}
	}
	a.shares[layer] += ns
}

// shareLayers are the layers whose share of the timed work's host time is
// reported. sim is everything inside sim.Run calls; sched runs inside
// cpu_cache's share (the event core is only reachable through sim.Run,
// like the cpu and cache models).
var shareLayers = []string{"sim", "workload", "cpu_cache", "memctrl", "code", "trace", "experiments"}

// metrics renders every per-layer metric. A layer the workload's timed
// cells never call reports zero work.
func (a *layerAcc) metrics() map[string]metric {
	div := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	msPer := func(ns int64, n int) float64 { return div(float64(ns)/1e6, float64(n)) }
	m := map[string]metric{
		"sim.fresh_ms":          {msPer(a.freshNS, a.freshCells), "ms"},
		"sim.replay_ms":         {msPer(a.replayNS, a.replayCells), "ms"},
		"sim.allocs_per_cell":   {div(float64(a.mallocs), float64(a.allocCells)), "count"},
		"sim.alloc_mb_per_cell": {div(float64(a.allocBytes)/1e6, float64(a.allocCells)), "MB"},

		"sched.events_fired":      {div(float64(a.eventsFired), float64(a.freshCells)), "count"},
		"sched.skip_ratio":        {div(float64(a.cyclesSkipped), float64(a.eventsFired+a.cyclesSkipped)), "ratio"},
		"sched.host_ns_per_event": {div(float64(a.eventNS), float64(a.eventsFired)), "ns"},

		"workload.gen_ms":  {msPer(a.genNS, a.genCells), "ms"},
		"workload.mem_ops": {div(float64(a.memOps), float64(a.genCells)), "count"},

		"cpu_cache.self_ms":    {msPer(a.cpuCacheNS, a.cpuCells), "ms"},
		"cache.l1_miss_ratio":  {div(float64(a.l1Misses), float64(a.l1Hits+a.l1Misses)), "ratio"},
		"cache.l2_miss_ratio":  {div(float64(a.l2Misses), float64(a.l2Hits+a.l2Misses)), "ratio"},
		"cache.writebacks":     {div(float64(a.writebacks), float64(a.resultCells)), "count"},
		"cpu.ipc":              {div(float64(a.instructions), float64(a.cpuCycles)), "inst/cycle"},
		"memctrl.column_cmds":  {div(float64(a.columnCmds), float64(a.resultCells)), "count"},
		"memctrl.bus_util":     {div(a.busUtil, float64(a.resultCells)), "fraction"},
		"memctrl.retries":      {div(float64(a.retries), float64(a.resultCells)), "count"},
		"dram.acts":            {div(float64(a.acts), float64(a.resultCells)), "count"},
		"code.encode_ns":       {div(a.encNS, float64(a.codeOps)), "ns"},
		"code.decode_ns":       {div(a.decNS, float64(a.codeOps)), "ns"},
		"code.cost_ns":         {div(a.costNS, float64(a.codeOps)), "ns"},
		"code.allocs_per_op":   {div(float64(a.codeMallocs), float64(a.codeOps)), "count"},
		"code.bursts_per_cell": {div(float64(a.bursts), float64(a.codeCells)), "count"},
		"code.share":           {div(a.codeEstNS, float64(a.replayNS)), "fraction"},

		"trace.record_ms":      {msPer(a.recordNS, a.records), "ms"},
		"trace.encode_ms":      {msPer(a.encodeNS, a.traces), "ms"},
		"trace.decode_ms":      {msPer(a.decodeNS, a.traces), "ms"},
		"trace.bytes_per_cell": {div(float64(a.traceBytes), float64(a.traces)), "bytes"},
		"trace.store_mb":       {div(float64(a.storeBytes)/1e6, float64(a.storePasses)), "MB"},
		"trace.hits":           {div(float64(a.hits), float64(a.storePasses)), "count"},
		"trace.cluster_trials": {div(float64(a.clusterTrials), float64(a.storePasses)), "count"},
		"trace.cluster_hits":   {div(float64(a.clusterHits), float64(a.storePasses)), "count"},
		"trace.adopt_ratio":    {div(float64(a.clusterHits), float64(a.clusterTrials)), "ratio"},

		"experiments.fresh_sims": {div(float64(a.freshSims), float64(a.experimentPasses)), "count"},
		"experiments.replays":    {div(float64(a.replays), float64(a.experimentPasses)), "count"},
		"experiments.busy_frac":  {div(float64(a.busyNS), float64(a.capacityNS)), "fraction"},
	}
	// The back end's host cost per column command: the same-config replays'
	// host time over the column commands of the same cells.
	m["memctrl.host_ns_per_column_cmd"] = metric{div(float64(a.replayNS), float64(a.replayCmds)), "ns"}
	for _, l := range shareLayers {
		m[l+".host_share"] = metric{div(a.shares[l], a.shareDen), "fraction"}
	}
	return m
}

// costSink keeps the timed CostZeros calls from being optimized away.
var costSink int

// codecProbe times the code layer on a cell's real payloads.
type codecProbe struct {
	codecs map[string]code.Codec
	enc    []bitblock.Burst
	dec    []bitblock.Block
}

// resolve returns the standalone codec behind a codec name the controller
// reported, or nil when no standalone codec exists under that name.
func (p *codecProbe) resolve(name string) code.Codec {
	if p.codecs == nil {
		p.codecs = map[string]code.Codec{}
	}
	c, ok := p.codecs[name]
	if !ok {
		c, _ = scheme.Codec(name)
		p.codecs[name] = c
	}
	return c
}

// run times EncodeInto, Decode and CostZeros over payloads for every codec
// in bursts (the cell's per-codec burst counts), checks that every payload
// round-trips, and returns the cell's estimated code time: bursts × the
// measured encode cost. Round-trip failures go to the checker.
func (p *codecProbe) run(e *env, id string, parent int, payloads []bitblock.Block, bursts map[string]int64) float64 {
	a := e.layer
	if len(p.enc) < len(payloads) {
		p.enc = make([]bitblock.Burst, len(payloads))
		p.dec = make([]bitblock.Block, len(payloads))
	}
	var est float64
	for _, name := range sortedKeys(bursts) {
		a.bursts += bursts[name]
		c := p.resolve(name)
		if c == nil {
			if a.unresolvedCodecs == nil {
				a.unresolvedCodecs = map[string]bool{}
			}
			a.unresolvedCodecs[name] = true
			continue
		}
		n := len(payloads)
		if n == 0 {
			continue
		}
		enc := func(i int) {
			if got := code.EncodeInto(c, &payloads[i], &p.enc[i]); got != &p.enc[i] {
				p.enc[i] = *got
			}
		}
		for i := 0; i < n; i++ { // size the scratch bursts outside the timing
			enc(i)
		}

		sp := e.sp.begin("code.encode", id, parent)
		m0, _ := heapCounters()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			enc(i)
		}
		encNS := time.Since(t0).Nanoseconds()
		m1, _ := heapCounters()
		e.sp.end(sp)

		sp = e.sp.begin("code.decode", id, parent)
		t0 = time.Now()
		var decErr error
		for i := 0; i < n; i++ {
			blk, err := c.Decode(&p.enc[i])
			if err != nil && decErr == nil {
				decErr = err
			}
			p.dec[i] = blk
		}
		decNS := time.Since(t0).Nanoseconds()
		e.sp.end(sp)

		sp = e.sp.begin("code.cost", id, parent)
		t0 = time.Now()
		for i := 0; i < n; i++ {
			costSink += code.CostZeros(c, &payloads[i])
		}
		costNS := time.Since(t0).Nanoseconds()
		e.sp.end(sp)

		mismatch := -1
		for i := 0; i < n && mismatch < 0; i++ {
			if p.dec[i] != payloads[i] {
				mismatch = i
			}
		}
		e.check.attempted++
		switch {
		case decErr != nil:
			e.check.fail("%s: codec %s: decode of its own encoding: %v", id, name, decErr)
		case mismatch >= 0:
			e.check.fail("%s: codec %s: payload %d does not round-trip", id, name, mismatch)
		}

		a.encNS += float64(encNS)
		a.decNS += float64(decNS)
		a.costNS += float64(costNS)
		a.codeOps += int64(n)
		a.codeMallocs += m1 - m0
		est += float64(bursts[name]) * float64(encNS) / float64(n)
	}
	a.codeCells++
	return est
}

// payloadsOf returns a cell's real payloads: the recorded write data, and
// the benchmark's line contents for every read line.
func payloadsOf(tr *trace.Trace, b *workload.Benchmark) []bitblock.Block {
	out := make([]bitblock.Block, 0, len(tr.Events))
	for i := range tr.Events {
		ev := &tr.Events[i]
		switch ev.Kind {
		case trace.ReadAccept:
			out = append(out, b.LineData(ev.Line))
		case trace.WriteAccept:
			out = append(out, ev.Data)
		}
	}
	return out
}

// threadsOf is the hardware thread count of a platform (Table 2).
func threadsOf(sys sim.SystemKind) int {
	c := cpu.ServerConfig()
	if sys == sim.Mobile {
		c = cpu.MobileConfig()
	}
	return c.Threads()
}

// drainStreams generates a cell's instruction streams alone and returns
// the number of memory operations. The streams are the benchmark's
// unscaled ones: a platform's compute scale only changes compute padding,
// never the memory operations.
func drainStreams(b *workload.Benchmark, sys sim.SystemKind, ops int64, seed uint64) (int64, error) {
	streams, err := b.NewStreamsSeeded(threadsOf(sys), ops, seed)
	if err != nil {
		return 0, err
	}
	var memOps int64
	for _, s := range streams {
		for {
			op, ok := s.Next()
			if !ok {
				break
			}
			if op.Kind != cpu.OpCompute {
				memOps++
			}
		}
	}
	return memOps, nil
}

// recordProbeRuns is how many plain and recording runs recordProbe
// alternates.
const recordProbeRuns = 3

// recordProbe measures the trace layer's recording cost for one
// configuration: recordProbeRuns plain runs alternated with as many
// recording runs, the overhead being the difference of their median host
// times. Recording must not change the Result: every run is checked
// against want (or, when want is "", against the first run). It returns
// the recorded trace, or nil when a run failed.
func recordProbe(e *env, id string, parent int, cfg sim.Config, want string) *trace.Trace {
	var plain, rec []float64
	var tr *trace.Trace
	for i := 0; i < recordProbeRuns; i++ {
		for _, recording := range []bool{false, true} {
			c, name := cfg, "sim.fresh"
			if recording {
				c.RecordTrace = func(t *trace.Trace) { tr = t }
				name = "trace.record"
			}
			sp := e.sp.begin(name, id, parent)
			t0 := time.Now()
			res, err := sim.Run(c)
			d := time.Since(t0).Seconds()
			e.sp.end(sp)
			digest := digestOrEmpty(res)
			if !e.check.derived(id+"/"+name, digest, err, want) {
				return nil
			}
			want = digest
			if recording {
				rec = append(rec, d)
			} else {
				plain = append(plain, d)
			}
		}
	}
	e.layer.recordNS += int64((median(rec) - median(plain)) * 1e9)
	e.layer.records++
	encodeProbe(e, id, parent, tr, cfg.FrontEndHash())
	return tr
}

// encodeProbe times the trace container round trip of one recorded trace.
func encodeProbe(e *env, id string, parent int, tr *trace.Trace, hash uint64) {
	a := e.layer
	sp := e.sp.begin("trace.encode", id, parent)
	t0 := time.Now()
	data := tr.Encode(hash)
	a.encodeNS += time.Since(t0).Nanoseconds()
	e.sp.end(sp)

	sp = e.sp.begin("trace.decode", id, parent)
	t0 = time.Now()
	back, err := trace.Decode(data, hash)
	a.decodeNS += time.Since(t0).Nanoseconds()
	e.sp.end(sp)
	a.traceBytes += int64(len(data))
	a.traces++
	e.check.attempted++
	if err != nil {
		e.check.fail("%s: trace container round trip: %v", id, err)
	} else if len(back.Events) != len(tr.Events) || back.DRAMCycles != tr.DRAMCycles {
		e.check.fail("%s: trace container round trip changed the trace", id)
	}
}
