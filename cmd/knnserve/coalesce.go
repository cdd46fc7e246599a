package main

import (
	"sync/atomic"
	"time"

	"sepdc"
)

// The coalescer is the admission-control and batching layer between the
// HTTP handlers and the zero-alloc batch engine. Each replica owns a
// bounded queue of pending ops and one coalescer goroutine: the
// goroutine blocks for the first op, then takes whatever ops are
// already queued — without waiting for more — until maxBatch queries
// are reached or the queue is empty, pins the current snapshot
// generation, runs one (or two — open and closed queries cannot share a
// pass) Batcher passes, copies each op's answers into op-owned arenas,
// and signals the waiting handlers. Under load, batches grow on their
// own: requests queue up while the previous pass runs.
//
// Design constraints, in the batch engine's own style:
//
//   - The steady state allocates nothing: ops are pooled by the HTTP
//     layer, every per-pass slice on the replica is reused, and result
//     arenas grow once per op and are recycled with it.
//     TestCoalescerSteadyStateAllocs holds the line.
//
//   - A pass pins exactly one generation: queries coalesced into one
//     pass are all answered by the same snapshot, and the pin is held
//     until their results have been copied out, so a concurrent swap
//     can never release a snapshot mid-pass (the internal/snapshot
//     contract) and every op reports the epoch that actually served it.
//
//   - Admission control is the bounded queue itself: a full queue
//     rejects at the front door (HTTP 503) instead of growing an
//     unbounded backlog, which is what keeps tail latency meaningful
//     under saturation.

// maxBatch is the query count at which a gather stops taking queued ops.
const maxBatch = 512

// op is one pending request's unit of work: the queries to answer, and
// op-owned result storage the coalescer fills before signalling done.
// Ops are pooled and reused; all reference-holding fields are either
// reset cheaply (slices re-sliced to zero length) or overwritten.
type op struct {
	queries [][]float64 // caller-owned; read only during the pass
	closed  bool

	// trace is the request's trace context (zero = untraced, the pooled
	// reset state); enq/deq bound the queue span: admission by the HTTP
	// handler and pickup by the coalescer goroutine.
	trace sepdc.TraceContext
	enq   time.Time
	deq   time.Time

	res   [][]int // one row per query, views into arena
	arena []int   // op-owned id storage, grows once per size class
	epoch uint64  // generation ordinal that served the op
	err   error

	done chan struct{} // 1-buffered; reused across lives
}

func newOp() *op {
	return &op{
		arena: make([]int, 0, 64),
		done:  make(chan struct{}, 1),
	}
}

// replica is one serving strand: a bounded pending-op queue, a
// coalescer goroutine, and per-pass scratch. The Batcher it runs on
// lives in the pinned generation (one Batcher per replica per
// generation — Batchers are single-goroutine engines, and the
// coalescer goroutine is that goroutine).
type replica struct {
	srv *server
	idx int

	ch   chan *op
	stop chan struct{}

	// Per-pass scratch, reused: the ops gathered this round, the
	// per-mode (open/closed) op groupings, and the query and per-query
	// trace slices handed to the Batcher.
	batch  []*op
	groups [2][]*op
	qbuf   [][]float64
	tbuf   []sepdc.TraceContext

	passes  atomic.Int64 // coalesced Batcher passes run
	coalesc atomic.Int64 // ops that shared a pass with at least one other
}

func newReplica(s *server, idx int) *replica {
	r := &replica{
		srv:   s,
		idx:   idx,
		ch:    make(chan *op, s.cfg.queue),
		stop:  make(chan struct{}),
		batch: make([]*op, 0, 64),
		qbuf:  make([][]float64, 0, maxBatch),
		tbuf:  make([]sepdc.TraceContext, 0, maxBatch),
	}
	for i := range r.groups {
		r.groups[i] = make([]*op, 0, 64)
	}
	return r
}

// submit offers an op to this replica's queue without blocking.
func (r *replica) submit(o *op) bool {
	select {
	case r.ch <- o:
		return true
	default:
		return false
	}
}

// loop is the coalescer goroutine: gather, serve, repeat. After stop it
// keeps serving until the queue is empty (those handlers are waiting),
// then returns.
func (r *replica) loop() {
	defer r.srv.wg.Done()
	for {
		var first *op
		select {
		case first = <-r.ch:
		case <-r.stop:
			select {
			case first = <-r.ch:
			default:
				return
			}
		}
		r.serve(r.gather(first))
	}
}

// gather starts a batch with first, then takes whatever ops are already
// queued, without blocking, until maxBatch queries are reached or the
// queue is empty.
func (r *replica) gather(first *op) []*op {
	r.batch = r.batch[:0]
	nq := 0
	for o := first; ; {
		o.deq = time.Now()
		r.batch = append(r.batch, o)
		nq += len(o.queries)
		if nq >= maxBatch {
			return r.batch
		}
		select {
		case o = <-r.ch:
		default:
			return r.batch
		}
	}
}

// serve answers one gathered batch against a single pinned snapshot
// generation. Open and closed queries are partitioned into separate
// Batcher passes (membership mode is a pass-level switch); both passes
// run on the same pinned generation, so a mixed batch still reports one
// epoch.
func (r *replica) serve(batch []*op) {
	pin := r.srv.snap.Acquire()
	gen := pin.Value()
	gen.inflight.Add(1)
	bt := gen.batchers[r.idx]
	coalesced := len(batch) > 1

	// Partition once, before any op is signalled: the moment an op's
	// done fires its handler may recycle it into the pool, so no field
	// of a signalled op may be read again — not even the closed flag.
	r.groups[0] = r.groups[0][:0]
	r.groups[1] = r.groups[1][:0]
	for _, o := range batch {
		if o.closed {
			r.groups[1] = append(r.groups[1], o)
		} else {
			r.groups[0] = append(r.groups[0], o)
		}
	}

	for mode, group := range r.groups {
		if len(group) == 0 {
			continue
		}
		r.qbuf = r.qbuf[:0]
		r.tbuf = r.tbuf[:0]
		traced := false
		for _, o := range group {
			r.qbuf = append(r.qbuf, o.queries...)
			for range o.queries {
				r.tbuf = append(r.tbuf, o.trace)
			}
			if o.trace.Valid() {
				traced = true
			}
		}
		// An all-untraced group (pooled ops reset to the zero context)
		// takes the exact pre-tracing engine path: RunTraced(q, nil) is
		// Run.
		tb := r.tbuf
		if !traced {
			tb = nil
		}
		start := time.Now()
		var err error
		if mode == 1 {
			err = bt.RunClosedTraced(r.qbuf, tb)
		} else {
			err = bt.RunTraced(r.qbuf, tb)
		}
		passNs := time.Since(start).Nanoseconds()
		r.srv.passLat.Observe(passNs)
		r.passes.Add(1)

		qi := 0
		for _, o := range group {
			o.epoch = gen.epoch
			o.err = err
			if coalesced {
				r.coalesc.Add(1)
			}
			if err != nil {
				// Validation failures are caught at decode; an error
				// here fails the whole pass. Leave results empty.
				o.res = o.res[:0]
				r.publishTrace(o, gen.epoch, start, passNs)
				o.done <- struct{}{}
				continue
			}
			// Size the arena exactly before taking views: rows alias
			// the arena, so it must not reallocate while rows are
			// being appended.
			total := 0
			for j := range o.queries {
				total += len(bt.Result(qi + j))
			}
			if cap(o.arena) < total {
				o.arena = make([]int, 0, total)
			} else {
				o.arena = o.arena[:0]
			}
			o.res = o.res[:0]
			for range o.queries {
				ids := bt.Result(qi)
				qi++
				lo := len(o.arena)
				o.arena = append(o.arena, ids...)
				o.res = append(o.res, o.arena[lo:len(o.arena):len(o.arena)])
			}
			r.publishTrace(o, gen.epoch, start, passNs)
			o.done <- struct{}{}
		}
	}
	gen.inflight.Add(-1)
	pin.Unpin()
}

// publishTrace records a completed op's queue → coalesce → pass span
// summary on the server's trace log. Must run BEFORE the op's done
// signal (a signalled op may already be back in the pool). Untraced ops
// (the zero context) publish nothing, so serving paths that never set a
// trace stay allocation-identical to the pre-tracing coalescer.
func (r *replica) publishTrace(o *op, epoch uint64, passStart time.Time, passNs int64) {
	if !o.trace.Valid() {
		return
	}
	now := time.Now()
	r.srv.traces.Publish(sepdc.RequestTrace{
		Trace:       o.trace,
		StartUnixNs: o.enq.UnixNano(),
		QueueNs:     o.deq.Sub(o.enq).Nanoseconds(),
		CoalesceNs:  passStart.Sub(o.deq).Nanoseconds(),
		PassNs:      passNs,
		TotalNs:     now.Sub(o.enq).Nanoseconds(),
		Queries:     int32(len(o.queries)),
		Closed:      o.closed,
		Replica:     int32(r.idx),
		Epoch:       epoch,
	})
}
