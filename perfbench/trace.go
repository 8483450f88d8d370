package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/wal"
)

// Site-call operation names, as the per-layer table prints them.
const (
	opProbe      = "probe"
	opProbeBatch = "probe_batch"
	opRange      = "range"
	opPrepare    = "prepare"
	opCommit     = "commit"
	opAbort      = "abort"
	opWatch      = "watch"
)

// siteOps are the operations a request can charge to a site, in table order.
var siteOps = []string{opProbe, opProbeBatch, opRange, opPrepare, opCommit, opAbort}

// call is one site call seen from outside the site: which broker made it,
// when, and with which arguments, so the same stream can be replayed into
// fresh sites and bare calendars.
type call struct {
	broker, site int
	op           string
	t0, t1       time.Time
	now          period.Time
	start, end   period.Time
	hold         string
	servers      int
	lease        period.Duration
	windows      []grid.Window
	granted      []int // prepare: the servers the site chose
	traced       bool  // the caller passed a span context
	err          error
}

// callLog keeps every recorded call in memory until the run ends.
type callLog struct {
	mu    sync.Mutex
	calls []call
}

func (l *callLog) add(c call) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	l.mu.Unlock()
}

// snapshot returns the calls recorded so far.
func (l *callLog) snapshot() []call {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]call(nil), l.calls...)
}

// fullConn is every connection surface the broker discovers by type
// assertion. Both wire.Client and grid.LocalConn implement all of it; a
// wrapper that hid one would silently move the broker onto a fallback path.
type fullConn interface {
	grid.RangeConn
	grid.TracedConn
	grid.ConflictPrepareConn
	grid.WatchConn
	grid.BatchProbeConn
}

// timedConn times every call into one site connection and records it.
type timedConn struct {
	fullConn
	broker, site int
	log          *callLog
}

var _ fullConn = (*timedConn)(nil)

func (t *timedConn) record(c call, t0 time.Time, err error) {
	c.broker, c.site, c.t0, c.t1, c.err = t.broker, t.site, t0, time.Now(), err
	t.log.add(c)
}

func (t *timedConn) Probe(now, start, end period.Time) (grid.ProbeResult, error) {
	return t.ProbeTraced(obs.SpanContext{}, now, start, end)
}

func (t *timedConn) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (grid.ProbeResult, error) {
	t0 := time.Now()
	r, err := t.fullConn.ProbeTraced(tc, now, start, end)
	t.record(call{op: opProbe, now: now, start: start, end: end, traced: tc.Valid()}, t0, err)
	return r, err
}

func (t *timedConn) ProbeBatch(now period.Time, windows []grid.Window) ([]grid.ProbeResult, error) {
	t0 := time.Now()
	r, err := t.fullConn.ProbeBatch(now, windows)
	t.record(call{op: opProbeBatch, now: now, windows: append([]grid.Window(nil), windows...)}, t0, err)
	return r, err
}

func (t *timedConn) RangeView(now, start, end period.Time) (grid.RangeResult, error) {
	t0 := time.Now()
	r, err := t.fullConn.RangeView(now, start, end)
	t.record(call{op: opRange, now: now, start: start, end: end}, t0, err)
	return r, err
}

func (t *timedConn) Prepare(now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return t.PrepareConflict(obs.SpanContext{}, now, holdID, start, end, servers, lease, 0)
}

func (t *timedConn) PrepareTraced(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return t.PrepareConflict(tc, now, holdID, start, end, servers, lease, 0)
}

func (t *timedConn) PrepareConflict(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	t0 := time.Now()
	got, err := t.fullConn.PrepareConflict(tc, now, holdID, start, end, servers, lease, probedEpoch)
	t.record(call{op: opPrepare, now: now, hold: holdID, start: start, end: end, servers: servers, lease: lease,
		granted: append([]int(nil), got...), traced: tc.Valid()}, t0, err)
	return got, err
}

func (t *timedConn) Commit(now period.Time, holdID string) error {
	return t.CommitTraced(obs.SpanContext{}, now, holdID)
}

func (t *timedConn) CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	t0 := time.Now()
	err := t.fullConn.CommitTraced(tc, now, holdID)
	t.record(call{op: opCommit, now: now, hold: holdID, traced: tc.Valid()}, t0, err)
	return err
}

func (t *timedConn) Abort(now period.Time, holdID string) error {
	return t.AbortTraced(obs.SpanContext{}, now, holdID)
}

func (t *timedConn) AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	t0 := time.Now()
	err := t.fullConn.AbortTraced(tc, now, holdID)
	t.record(call{op: opAbort, now: now, hold: holdID, traced: tc.Valid()}, t0, err)
	return err
}

// WatchEpoch is recorded for the RPC count only: the long poll runs in the
// background and is never charged to a request.
func (t *timedConn) WatchEpoch(after uint64, maxWait time.Duration) (grid.EpochEvent, bool, error) {
	t0 := time.Now()
	ev, changed, err := t.fullConn.WatchEpoch(after, maxWait)
	t.record(call{op: opWatch}, t0, err)
	return ev, changed, err
}

// timedWAL times each group commit a site makes into its log.
type timedWAL struct {
	log *wal.Log

	mu      sync.Mutex
	flushes durations
	records int
	bytes   int
}

var _ grid.BatchWAL = (*timedWAL)(nil)

func (w *timedWAL) note(t0 time.Time, recs [][]byte) {
	d := time.Since(t0)
	w.mu.Lock()
	w.flushes = append(w.flushes, d)
	w.records += len(recs)
	for _, r := range recs {
		w.bytes += len(r)
	}
	w.mu.Unlock()
}

func (w *timedWAL) Append(rec []byte) (uint64, error) {
	t0 := time.Now()
	lsn, err := w.log.Append(rec)
	w.note(t0, [][]byte{rec})
	return lsn, err
}

func (w *timedWAL) AppendBatch(recs [][]byte) (uint64, error) {
	t0 := time.Now()
	lsn, err := w.log.AppendBatch(recs)
	w.note(t0, recs)
	return lsn, err
}

func (w *timedWAL) Checkpoint(snapshot []byte) error { return w.log.Checkpoint(snapshot) }

// countingListener counts the bytes every accepted connection carries in
// both directions: the wire layer's payload, gob framing included.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
