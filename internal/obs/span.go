package obs

import (
	"log/slog"
	"math/rand/v2"
	"sync"
	"time"
)

// Span-based request tracing. A trace is the causal tree of one request —
// the broker's co-allocation root, its ladder attempts, the per-site probe
// and prepare spans, and (across the wire) the site-local spans those RPCs
// spawn. Each process records only its own fragment of the tree into its
// flight recorder; the fragments share a TraceID and parent span IDs, so an
// operator can stitch them by pulling /debug/traces from each daemon.
//
// The design is allocation-light and always-on: a span is one struct
// appended to a per-trace buffer under a mutex that is only ever contended
// by the goroutines of a single request, and a finished trace is one
// copy into the recorder ring. Code that traces holds an *ActiveSpan; every
// method on it is nil-safe, so untraced paths (no recorder configured, or a
// request that arrived without trace context) pay a single nil check.

// SpanContext identifies a position inside a trace. It is what crosses the
// wire: a child started from a remote SpanContext parents correctly under
// the caller's span even though the two processes never share memory.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real span. The zero value is
// "no trace": untraced requests carry zero IDs and are left untraced
// rather than misfiled under trace 0.
func (c SpanContext) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// Span is one timed operation in a trace. End is zero while the operation
// is in flight; a non-empty Err marks the span failed.
type Span struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64 // parent span ID; 0 for the trace root
	Name    string
	Start   time.Time
	End     time.Time
	Err     string
	Attrs   []slog.Attr
}

// Duration is End-Start, or 0 while the span is unfinished.
func (s Span) Duration() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// spanID returns a random nonzero 64-bit ID. Collisions inside one
// recorder's retention window are vanishingly unlikely (birthday bound at
// 256 traces of ~30 spans: ~2e-15) and at worst misdraw one tree edge.
func spanID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// traceBuf accumulates the spans of one in-flight local trace fragment.
// The buffer finalizes exactly once, when its local root span ends: the
// spans are copied into an immutable Trace and handed to the recorder.
// Child spans that end after the root (stragglers from abandoned
// goroutines) are guarded no-ops.
//
// traceBufs are pooled: tracing is always on, so starting a fragment must
// not cost a fresh ~300-byte allocation per request — on a small box the
// GC assist for that garbage is the recorder's whole overhead budget. A
// finalized buffer goes back to tbPool and is recycled for a later trace.
// Recycling is made safe by gen: every reuse increments it, every handle
// remembers the value it was created under, and a stale handle (a
// straggler goroutine still holding a span of the finalized trace) fails
// the gen check under the mutex and no-ops instead of scribbling on the
// buffer's next occupant.
type traceBuf struct {
	rec    *Recorder
	remote bool // fragment of a trace rooted in another process

	mu    sync.Mutex
	gen   uint64 // bumped on each reuse; see ActiveSpan.gen
	spans []*Span
	done  bool
	errs  int

	// Root span, its handle, and the usual-case storage share the
	// traceBuf's pooled allocation: inline backs spans for trees up to 8
	// spans before append spills, recArena backs Record'ed spans (which
	// hand out no pointers, so recycling them with the buffer is safe).
	// Embedding the root handle is why a root handle must never be used
	// after its End() returns: by then the buffer — and the handle's own
	// memory — may already belong to a different trace.
	root     ActiveSpan
	rootSp   Span
	inline   [8]*Span
	recArena [4]Span
	recN     int
}

// arenaSpan hands out a Span backed by the buffer's inline arena when one
// is free, falling back to the heap. Caller holds tb.mu.
func (tb *traceBuf) arenaSpan() *Span {
	if tb.recN < len(tb.recArena) {
		sp := &tb.recArena[tb.recN]
		tb.recN++
		return sp
	}
	return new(Span)
}

var tbPool = sync.Pool{New: func() any { return new(traceBuf) }}

// spanHandle carries a child span and its handle in one allocation. Child
// spans are NOT pooled: a straggler may hold its handle indefinitely, and
// unlike the traceBuf there is no generation check that could distinguish
// a stale pointer into recycled handle memory.
type spanHandle struct {
	a  ActiveSpan
	sp Span
}

// ActiveSpan is a live handle on one span of an in-flight trace. The zero
// of usefulness: every method on a nil *ActiveSpan is a no-op, so callers
// thread spans through without checking whether tracing is on.
type ActiveSpan struct {
	tb  *traceBuf
	sp  *Span
	gen uint64 // tb.gen at creation; mismatch means tb was recycled
}

// stale reports whether the handle outlived its trace buffer's current
// occupant. Callers hold tb.mu.
func (a *ActiveSpan) stale() bool { return a.gen != a.tb.gen }

// Context returns the span's wire context, or the zero SpanContext on a
// nil or finalized span.
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	a.tb.mu.Lock()
	defer a.tb.mu.Unlock()
	if a.stale() {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.sp.TraceID, SpanID: a.sp.SpanID}
}

// TraceID returns the trace ID, or 0 on a nil or finalized span.
// Histograms use it to stamp exemplars.
func (a *ActiveSpan) TraceID() uint64 {
	if a == nil {
		return 0
	}
	a.tb.mu.Lock()
	defer a.tb.mu.Unlock()
	if a.stale() {
		return 0
	}
	return a.sp.TraceID
}

// StartChild opens a child span. Safe to call on a nil span (returns nil)
// and after the trace finalized (returns nil: the straggler's work would
// never be visible anyway). The attrs slice is retained as passed;
// callers may share one read-only slice across spans if its cap equals
// its len, so a later Annotate reallocates instead of appending in place.
func (a *ActiveSpan) StartChild(name string, attrs ...slog.Attr) *ActiveSpan {
	if a == nil {
		return nil
	}
	tb := a.tb
	h := &spanHandle{}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.done || a.stale() {
		return nil
	}
	h.sp = Span{
		TraceID: a.sp.TraceID,
		SpanID:  spanID(),
		Parent:  a.sp.SpanID,
		Name:    name,
		Start:   tb.rec.now(),
		Attrs:   attrs,
	}
	h.a = ActiveSpan{tb: tb, sp: &h.sp, gen: tb.gen}
	tb.spans = append(tb.spans, &h.sp)
	return &h.a
}

// Record adds an already-completed child span with explicit bounds — for
// intervals measured before tracing could attach a handle, like the time a
// write spent queued before the batch leader picked it up.
func (a *ActiveSpan) Record(name string, start, end time.Time, attrs ...slog.Attr) {
	if a == nil {
		return
	}
	tb := a.tb
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.done || a.stale() {
		return
	}
	sp := tb.arenaSpan()
	*sp = Span{
		TraceID: a.sp.TraceID,
		SpanID:  spanID(),
		Parent:  a.sp.SpanID,
		Name:    name,
		Start:   start,
		End:     end,
		Attrs:   attrs,
	}
	tb.spans = append(tb.spans, sp)
}

// ChildContext reserves the identity of a child span without allocating a
// handle, for pairing with RecordAs once the operation finishes. Handing
// out the ID before the span exists lets a remote callee parent its
// fragment under the span while the RPC is still in flight. Returns the
// zero SpanContext on a nil or finalized span.
func (a *ActiveSpan) ChildContext() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	a.tb.mu.Lock()
	defer a.tb.mu.Unlock()
	if a.tb.done || a.stale() {
		return SpanContext{}
	}
	return SpanContext{TraceID: a.sp.TraceID, SpanID: spanID()}
}

// RecordAs records a completed child span under an identity reserved by
// ChildContext — the allocation-free form of StartChild+Fail+End for
// hot-path leaf operations. A zero sc (tracing off, or the trace
// finalized before the operation started) is ignored. If the trace
// finalized mid-operation the span is dropped; a remote fragment that
// parented under sc then renders as its own subtree, same as any other
// straggler.
func (a *ActiveSpan) RecordAs(sc SpanContext, name string, start, end time.Time, err error, attrs ...slog.Attr) {
	if a == nil || !sc.Valid() {
		return
	}
	tb := a.tb
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if tb.done || a.stale() {
		return
	}
	sp := tb.arenaSpan()
	*sp = Span{
		TraceID: sc.TraceID,
		SpanID:  sc.SpanID,
		Parent:  a.sp.SpanID,
		Name:    name,
		Start:   start,
		End:     end,
		Attrs:   attrs,
	}
	if err != nil {
		sp.Err = err.Error()
		tb.errs++
	}
	tb.spans = append(tb.spans, sp)
}

// Annotate appends attrs to the span. A span with no attrs yet adopts the
// slice as passed (when fully occupied), so hot paths can hand the same
// read-only cap==len slice to every span without an allocation.
func (a *ActiveSpan) Annotate(attrs ...slog.Attr) {
	if a == nil {
		return
	}
	a.tb.mu.Lock()
	defer a.tb.mu.Unlock()
	if a.tb.done || a.stale() {
		return
	}
	if a.sp.Attrs == nil && len(attrs) == cap(attrs) {
		a.sp.Attrs = attrs
		return
	}
	a.sp.Attrs = append(a.sp.Attrs, attrs...)
}

// Fail marks the span errored. A nil err is ignored.
func (a *ActiveSpan) Fail(err error) {
	if a == nil || err == nil {
		return
	}
	a.tb.mu.Lock()
	defer a.tb.mu.Unlock()
	if a.tb.done || a.stale() {
		return
	}
	if a.sp.Err == "" {
		a.sp.Err = err.Error()
		a.tb.errs++
	}
}

// End closes the span. Ending the trace's local root finalizes the whole
// fragment into the recorder; any still-open children are closed at the
// same instant so the recorded tree has no dangling intervals. Ending a
// span twice, or after the root finalized, is a no-op.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	tb := a.tb
	tb.mu.Lock()
	if tb.done || a.stale() || !a.sp.End.IsZero() {
		tb.mu.Unlock()
		return
	}
	rec := tb.rec
	now := rec.now()
	a.sp.End = now
	if a.sp != &tb.rootSp {
		tb.mu.Unlock()
		return
	}
	// Local root ended: finalize. Close stragglers, snapshot, hand off —
	// one recorder-lock acquisition covers the snapshot copy, retention
	// classing, and buffer recycling.
	tb.done = true
	for _, sp := range tb.spans {
		if sp.End.IsZero() {
			sp.End = now
		}
	}
	rec.admitFrom(tb)
	tb.mu.Unlock()
	// Stale handles reject themselves via gen, so the buffer can be
	// recycled immediately — the admitted snapshot holds no pointers in.
	tbPool.Put(tb)
}
