package memctrl

import "mil/internal/bitblock"

// Request is one cache-block transfer demanded of the memory system.
type Request struct {
	Line   int64 // cache-line index (byte address >> 6)
	Write  bool
	Data   bitblock.Block // payload for writes
	Arrive int64          // DRAM cycle the request entered the controller
	Stream int            // originating hardware thread, for statistics
	Demand bool           // false for prefetches
	OnDone func(now int64)
	// Tag is caller-owned scratch the controller never reads or writes.
	// The replay driver stores the trace event index here so the
	// controller-level completion hook (SetDoneHook) can verify completion
	// cycles without a per-request closure. Not serialized by SnapRequest:
	// the only Tag user (replay) cannot combine with checkpointing.
	Tag    int
	loc    Location
	mapped bool // loc computed (requests are re-enqueued on backpressure)
	queued bool // waiting in a controller's read queue (see Controller.Promote)
	// needDone marks a snapshot-restored request whose OnDone callback has
	// not been re-linked yet (closures cannot be serialized).
	needDone bool
	bank     int32 // loc's flat bank index, set when a queue admits the request
	// seq is the admission stamp a queue gives the request: queue order
	// is seq order, so it compares ages across the per-bank lists (see
	// bankQueues).
	seq uint64

	retries int   // failed link transfers replayed so far
	retryAt int64 // ineligible for scheduling before this cycle (backoff)
}

// Retries returns how many times this request's burst was replayed after a
// link failure.
func (r *Request) Retries() int { return r.retries }

// complete invokes the completion callback, if any.
func (r *Request) complete(now int64) {
	if r.OnDone != nil {
		r.OnDone(now)
	}
}
