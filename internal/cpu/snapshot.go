package cpu

import (
	"fmt"

	"mil/internal/snap"
)

// Snapshot serializes the processor's timing state and per-thread
// contexts. Thread streams are serialized by their own package (they hold
// the workload RNG state); the processor records everything else a thread
// carries, including any Retry-parked pending op. A thread's parked
// version is not serialized: checkpoints are taken between landed
// cycles, where every pending op was refused at the hierarchy's current
// MSHR-free version (a fill moves it only inside a memory tick, and the
// processor Tick that follows on the same cycle reissues the op), so
// Restore re-derives it.
func (p *Processor) Snapshot(w *snap.Writer) {
	w.I64(p.now)
	w.I64(p.ticked)
	w.I64(p.Retired)
	w.I64(p.LoadOps)
	w.I64(p.StoreOps)
	w.I64(p.StallTics)
	w.Len(len(p.threads))
	for _, t := range p.threads {
		w.I64(t.readyAt)
		w.Bool(t.blocked)
		w.Bool(t.finished)
		w.Bool(t.hasPending)
		if t.hasPending {
			w.Int(int(t.pending.Kind))
			w.I64(t.pending.N)
			w.I64(t.pending.Addr)
		}
		w.Int(t.inflight)
		w.I64(t.doneAt)
	}
}

// Restore implements snap.Snapshotter.
func (p *Processor) Restore(r *snap.Reader) error {
	p.now = r.I64()
	p.ticked = r.I64()
	p.Retired = r.I64()
	p.LoadOps = r.I64()
	p.StoreOps = r.I64()
	p.StallTics = r.I64()
	n := r.Len()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(p.threads) {
		return fmt.Errorf("cpu: snapshot has %d threads, config has %d", n, len(p.threads))
	}
	for _, t := range p.threads {
		t.readyAt = r.I64()
		t.blocked = r.Bool()
		t.finished = r.Bool()
		t.pending, t.hasPending = Op{}, r.Bool()
		if t.hasPending {
			t.pending = Op{Kind: OpKind(r.Int()), N: r.I64(), Addr: r.I64()}
			t.parkedAt = p.hier.MSHRFreeVersion()
		}
		t.inflight = r.Int()
		t.doneAt = r.I64()
	}
	return r.Err()
}
