// Tick pipeline (DESIGN.md S31): one path from the tick to the
// journal, in two pieces.
//
//   - The sweep. Each tick partitions the session registry's shards
//     across Config.TickWorkers goroutines — the tick goroutine plus
//     TickWorkers-1 helpers spawned for that tick and joined before it
//     ends — each running the full per-session unit (snapshot →
//     history → derive → encode → fan-out) for the sessions of the
//     shards it claims. TickWorkers 1 is the same sweep without
//     helpers.
//   - The async WAL handoff. On a durable server, tick rows go to a
//     bounded queue drained by one dedicated appender goroutine that
//     journals each drain as a single wal.AppendRowsTraced batch,
//     taking journal writes (and under -fsync always, fsyncs) off the
//     tick's critical path. PUBLISH journals its row synchronously
//     through the same call, as a one-row batch (appendHistory).
//
// Why partitioning by shard is enough for correctness: every ordering
// guarantee the fan-out makes is per-session (per-subscriber seq
// monotonicity, delta keyframe chaining, DERIVED-follows-SNAPSHOT),
// and a session lives in exactly one registry shard, so one worker
// owns all of a session's tick work for the whole tick. State shared
// across sessions is concurrency-safe on its own: the tsdb store and
// WAL take their own locks, the derive engine stripes its session
// state, telemetry counters are striped atomics, and the shared
// encode-buffer pool is reference-counted.
package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/telemetry/tracing"
	"repro/internal/tsdb/wal"
)

// tickJob is one tick's sweep, shared by every worker helping with it.
// Workers claim registry shards through the atomic cursor until none
// remain — work-stealing granularity of one shard, so a shard heavy
// with sessions never pins the sweep behind a static partition.
type tickJob struct {
	now    int64
	cursor atomic.Int64
	// trc is the tick's trace (nil untraced). Workers hang one "shard"
	// span per claimed shard off its root; the Trace is internally
	// locked, so concurrent workers append safely.
	trc *tracing.Trace
}

// runSweep claims and sweeps shards until the job is exhausted.
// worker identifies the sweeping goroutine (0 is the tick goroutine)
// in shard-span annotations — the Perfetto export maps it to a thread
// track, making the sweep's actual parallelism visible.
func (s *Server) runSweep(job *tickJob, worker int) {
	n := int64(len(s.reg.shards))
	for {
		i := job.cursor.Add(1) - 1
		if i >= n {
			return
		}
		sp := job.trc.StartSpan(tracing.NoSpan, "shard")
		swept := s.reg.sweepShard(int(i), func(sess *session) {
			s.tickSession(sess, job.now, job.trc, sp)
		})
		job.trc.AnnotateInt(sp, "shard", i)
		job.trc.AnnotateInt(sp, "worker", int64(worker))
		job.trc.AnnotateInt(sp, "sessions", int64(swept))
		job.trc.EndSpan(sp)
	}
}

// tickSession is the per-session tick unit: snapshot → history append
// → snapshot fan-out → derived fan-out.
//
// Stage spans go to d, which is the tick's trace only when it was
// head-sampled: with thousands of sessions, per-session spans on every
// tail-candidate tick would dwarf the work they measure. The coarse
// shard span (parent), the WAL-stall error mark and a fired derive
// alert still reach the tick's trace t on every traced tick.
func (s *Server) tickSession(sess *session, now int64, t *tracing.Trace, parent tracing.SpanRef) {
	d := t.Detail()
	ss := d.StartSpan(parent, "session")
	d.AnnotateInt(ss, "session", int64(sess.id))
	sp := d.StartSpan(ss, "snapshot")
	resp, subs, ok := sess.snapshot()
	d.EndSpan(sp)
	if ok {
		hs := d.StartSpan(ss, "tsdb.append")
		s.appendTickHistory(t, wal.Row{Session: resp.Session, TS: now,
			Events: resp.Events, Vals: resp.Values})
		d.EndSpan(hs)
		fs := d.StartSpan(ss, "fanout")
		d.AnnotateInt(fs, "subs", int64(len(subs)))
		s.fanout(t, fs, sess, resp, subs)
		d.EndSpan(fs)
		// An alert annotates the derive span, or the shard span when
		// the tick is not traced in detail.
		ds := parent
		if d != nil {
			ds = d.StartSpan(ss, "derive")
		}
		s.fanoutDerived(t, ds, sess, resp, subs, now)
		d.EndSpan(ds)
	}
	d.EndSpan(ss)
}

// walQueueRows bounds the async WAL handoff queue and each batch the
// appender drains from it: one tick's rows for 256 sessions, so a disk
// that keeps pace with the tick never stalls it, while a disk that
// falls behind holds back at most this many unjournaled rows.
const walQueueRows = 256

// appendTickHistory records one tick row. On a durable server with the
// appender running, the row goes to the bounded handoff queue and the
// journal write leaves the tick's critical path; a full queue blocks
// the tick (counted in tick_stalls) rather than dropping the row —
// backpressure, never silent data loss. The queued row's slices are
// safe to retain past the tick: Events is the session's copy-on-write
// name slice and Vals the tick's freshly allocated snapshot values.
// Otherwise the row takes appendHistory's synchronous path.
func (s *Server) appendTickHistory(t *tracing.Trace, row wal.Row) {
	if !s.histOn.Load() {
		s.appendHistory(row)
		return
	}
	select {
	case s.histCh <- row:
		return
	default:
	}
	s.m.tickStalls.Inc()
	// A stall marks the tick's trace as errored, so the flight recorder
	// always keeps the evidence of a disk that cannot keep up — the
	// span measures exactly the blocked handoff.
	sp := t.StartSpan(tracing.NoSpan, "wal.stall")
	s.histCh <- row
	t.EndSpan(sp)
	t.SetError("tick stalled on full WAL handoff queue")
}

// histLoop is the dedicated WAL appender: it drains the handoff queue,
// coalescing every immediately available row into one batched
// AppendRowsTraced call — one WAL lock acquisition and (under -fsync
// always) one fsync per drained batch, which in steady state is one
// tick's rows. Write-ahead ordering relative to seal/truncate is
// untouched: batching sits above wal.Log, and inside the call every
// row still hits the journal before the store sees it. A WAL write
// failure leaves that row RAM-only, counted and logged by the WAL
// itself.
//
// Shutdown protocol: Shutdown closes histQuit only after the tick loop
// has joined, so no new rows can arrive; histLoop then journals what
// is still queued in batches of the same shape and closes histDone —
// the signal that wal.Close may run without abandoning
// acked-to-the-queue rows.
func (s *Server) histLoop() {
	defer close(s.histDone)
	batch := make([]wal.Row, 0, walQueueRows)
	quit := false
	for {
		batch = batch[:0]
		if !quit {
			select {
			case row := <-s.histCh:
				batch = append(batch, row)
			case <-s.histQuit:
				s.histOn.Store(false)
				quit = true
			}
		}
	drain:
		for len(batch) < walQueueRows {
			select {
			case row := <-s.histCh:
				batch = append(batch, row)
			default:
				break drain
			}
		}
		if len(batch) == 0 {
			return // quitting, and the queue is empty
		}
		// Each drained batch is its own traced unit ("wal" kind): the
		// journal-write and fsync spans live inside AppendRowsTraced,
		// and a write error tail-retains the batch's trace.
		t := s.trc.Start("wal", "wal.batch")
		t.AnnotateInt(tracing.NoSpan, "rows", int64(len(batch)))
		if err := s.wal.AppendRowsTraced(batch, t); err != nil {
			t.SetError(err.Error())
		}
		s.trc.Finish(t)
	}
}

// maxPooledFrame bounds what the frame-buffer pools retain; a rare
// oversized frame is left to the GC instead of pinning its array.
const maxPooledFrame = 1 << 16

// sharedBuf is a reference-counted, pooled encode buffer for fan-out
// frames. A fan-out serializes each distinct frame once per codec and
// shares the bytes across every connection write queue; the refcount
// is one for the encCache that owns the encode plus one per enqueued
// frame, and whoever drops the last reference returns the buffer to
// the pool. Every deliberate discard path releases (write-queue drop,
// jam, closed queue, the socket write itself); frames abandoned in the
// queue of an evicted connection are simply never released and fall
// to the GC — a pool miss, never a reuse-while-referenced.
type sharedBuf struct {
	buf  []byte
	refs atomic.Int32
}

var sharedBufPool = sync.Pool{New: func() any { return new(sharedBuf) }}

// newSharedBuf takes a pooled buffer with one reference (the encoding
// cache's own).
func newSharedBuf() *sharedBuf {
	sb := sharedBufPool.Get().(*sharedBuf)
	sb.refs.Store(1)
	return sb
}

// ref takes one more reference, for a frame about to be enqueued.
func (sb *sharedBuf) ref() { sb.refs.Add(1) }

func (sb *sharedBuf) release() {
	if sb.refs.Add(-1) == 0 {
		if cap(sb.buf) <= maxPooledFrame {
			sb.buf = sb.buf[:0]
			sharedBufPool.Put(sb)
		}
	}
}

// viewSubsPool recycles the filtered-subscriber scratch slice fanout
// builds each session-tick (see Server.fanout).
var viewSubsPool = sync.Pool{New: func() any { return new([]*subscriber) }}
