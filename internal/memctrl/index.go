package memctrl

import "math/bits"

// bankQueues indexes one controller queue by flat bank index: per bank
// and request class, the queued requests in age order. Ages compare
// across banks through Request.seq, the controller's admission stamp, so
// the scheduler can visit each non-empty bank once (its class heads are
// the FR-FCFS claimants) instead of walking the whole queue once per
// pass.
//
// The read queue keeps two classes, demand (0) and prefetch (1); the
// write queue keeps every write in class 0. A list grows to the largest
// occupancy its bank and class reach and keeps that capacity. The queue
// slices (rq/wq) remain the source of truth for snapshots and the
// look-ahead; the index is derived from them, rebuilt by Restore, and
// never serialized.
type bankQueues struct {
	lists [][2][]*Request
	busy  []uint64 // bitset of banks holding at least one request
}

func newBankQueues(banks int) bankQueues {
	return bankQueues{
		lists: make([][2][]*Request, banks),
		busy:  make([]uint64, (banks+63)/64),
	}
}

// readClass is a read's index class: demand reads outrank prefetches.
func readClass(req *Request) int {
	if req.Demand {
		return 0
	}
	return 1
}

// push appends req as the youngest request of its bank and class.
func (q *bankQueues) push(req *Request, class int) {
	l := &q.lists[req.bank][class]
	*l = append(*l, req)
	q.busy[req.bank>>6] |= 1 << (req.bank & 63)
}

// insert adds req to its bank and class list at its age position (a
// promoted prefetch joins the demand list among older and younger reads).
func (q *bankQueues) insert(req *Request, class int) {
	l := &q.lists[req.bank][class]
	i := len(*l)
	for i > 0 && (*l)[i-1].seq > req.seq {
		i--
	}
	*l = append(*l, nil)
	copy((*l)[i+1:], (*l)[i:])
	(*l)[i] = req
	q.busy[req.bank>>6] |= 1 << (req.bank & 63)
}

// remove deletes req from its bank and class list.
func (q *bankQueues) remove(req *Request, class int) {
	b := req.bank
	l := &q.lists[b][class]
	n := len(*l) - 1
	i := 0
	for (*l)[i] != req {
		i++
	}
	copy((*l)[i:], (*l)[i+1:])
	(*l)[n] = nil
	*l = (*l)[:n]
	if len(q.lists[b][0]) == 0 && len(q.lists[b][1]) == 0 {
		q.busy[b>>6] &^= 1 << (b & 63)
	}
}

// clear empties the index (Restore rebuilds it from the queue slices).
func (q *bankQueues) clear() {
	for b := range q.lists {
		for k := range q.lists[b] {
			clear(q.lists[b][k])
			q.lists[b][k] = q.lists[b][k][:0]
		}
	}
	clear(q.busy)
}

// heads returns bank b's class heads (nil for an empty class) and how
// many there are.
func (q *bankQueues) heads(b int) (h [2]*Request, n int) {
	for k, l := range q.lists[b] {
		if len(l) > 0 {
			h[k] = l[0]
			n++
		}
	}
	return h, n
}

// nextBank returns the lowest non-empty bank >= from, or -1. The
// scheduler loops `for b := q.nextBank(0); b >= 0; b = q.nextBank(b + 1)`.
func (q *bankQueues) nextBank(from int) int {
	for w := from >> 6; w < len(q.busy); w++ {
		word := q.busy[w]
		if w == from>>6 {
			word &= ^uint64(0) << (from & 63)
		}
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}
