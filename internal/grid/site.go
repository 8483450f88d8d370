// Package grid implements multi-site resource co-allocation: the setting of
// DUROC (Czajkowski/Foster/Kesselman) and the multi-site strategies of Zhang
// et al. that the paper positions itself against (§1). Each site runs the
// paper's online scheduler over its own servers; a broker co-allocates one
// job's servers across several sites **atomically** using a two-phase
// commit with leased holds:
//
//	Phase 1 (prepare): the broker asks each chosen site to reserve its share
//	  of the job for the same time window. A site that can, commits the
//	  servers into its calendar and records a *hold* with a lease deadline;
//	  a site that cannot, refuses.
//	Phase 2 (commit/abort): if every site prepared, the broker commits the
//	  holds (making them durable); otherwise it aborts them all and may
//	  retry the whole window Δt later, mirroring §4.2's retry loop.
//
// Holds that are neither committed nor aborted — a crashed broker, a lost
// message — expire when their lease passes, releasing the resources; sites
// therefore never deadlock waiting for a decision. Brokers prepare sites in
// a canonical order, so two brokers competing for overlapping site sets
// cannot deadlock either: the protocol's only failure mode is an abort.
//
// Read path / write path. A site splits its operations in two. Reads —
// Probe, RangeSearch, Stats — are served from an immutable epoch snapshot
// (siteView) published through an atomic pointer after each mutation batch,
// so any number of broker probes proceed concurrently without touching the
// site mutex (RCU-style: readers load the pointer, writers publish a fresh
// view). Writes — Prepare, Commit, Abort, and any read that must advance
// the clock past the published epoch — go through a bounded admission queue
// (submitWrite) that coalesces concurrently arriving mutations into one
// lock acquisition and one write-ahead-log group commit per batch. A view
// is published only after the batch's journal records are durable, so a
// reader can never observe state the log does not yet describe.
//
// All timestamps are simulation time supplied by the caller, which keeps
// the protocol deterministic and testable; a deployment would pass wall
// clock seconds.
package grid

import (
	"crypto/rand"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/calendar"
	"coalloc/internal/core"
	"coalloc/internal/job"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// Hold identifies a prepared-but-undecided reservation on one site.
type Hold struct {
	ID      string
	Alloc   job.Allocation
	Expires period.Time
}

// maxWriteBatch bounds how many queued mutations one batch leader applies
// under a single lock acquisition (and single journal group commit). Small
// enough to bound any one caller's latency, large enough to amortize the
// fsync under load.
const maxWriteBatch = 64

// pendingWrite is one queued mutation: exec runs under the site lock and may
// stage journal records; err carries exec's result (or the batch's journal
// failure) back to the submitter once done is closed. sp, when non-nil, is
// the submitter's trace span: the batch leader records the queue wait and
// the group-commit flush under it.
type pendingWrite struct {
	exec     func() error
	err      error
	done     chan struct{}
	sp       *obs.ActiveSpan
	enqueued time.Time
}

// siteView is one published epoch: the calendar's searchable state plus the
// protocol counters as of the end of a mutation batch. Immutable once
// published.
type siteView struct {
	cal calendar.View
	// epoch identifies the availability state this view answers for:
	// epochSalt + the calendar's mutation epoch. Two views with equal
	// epochs answer every probe and range search identically, so a broker
	// may reuse a cached answer for as long as the epoch stands still.
	epoch uint64
	// salt is the incarnation component of epoch, republished with every
	// view so watch events can carry it without taking the site lock.
	salt                                  uint64
	prepared, committed, aborted, expired uint64
	// lookupAttrs is the prebuilt cap==len attr slice for spans answered
	// from this view; the site and epoch are fixed per view, so probes on
	// the lock-free read path annotate their span without allocating.
	lookupAttrs []slog.Attr
}

// Site is one administrative domain: a named pool of servers managed by the
// paper's online scheduler, extended with prepare/commit/abort holds. It is
// safe for concurrent use; see the package comment for the read/write split.
type Site struct {
	mu    sync.Mutex
	name  string
	sched *core.Scheduler
	holds map[string]Hold
	// committedHolds remembers decided holds until their window ends, so a
	// broker can compensate a partial phase-2 failure by aborting the sites
	// that did commit (releasing their shares) — without it, Abort of a
	// committed hold would be an unknown-hold no-op and the capacity would
	// stay allocated for the full job duration.
	committedHolds map[string]Hold
	tracer         obs.Tracer // optional; see Instrument

	// recorder is the site's flight recorder; see SetRecorder. Requests
	// arriving with trace context (Conn's tc, wire trace fields) record
	// their site-side spans — view lookup, queue wait, WAL flush — into it
	// as fragments of the caller's trace. Atomic so it can be attached to a
	// serving site without a lock on the read path.
	recorder atomic.Pointer[obs.Recorder]
	// spanAttrs is the read-only cap==len attr slice shared by every span
	// fragment this site records; built once in NewSite.
	spanAttrs []slog.Attr

	// epochSalt offsets the calendar's mutation epoch in every published
	// view. The calendar counter restarts at the recovered value after a
	// WAL replay but at zero after a restore from an older snapshot; a
	// random per-incarnation salt keeps epochs from different lifetimes of
	// the "same" site disjoint, so a broker can never mistake a pre-restart
	// cache entry for current state. Within one incarnation the epoch is
	// strictly monotone. The salt is drawn so the epoch is never zero —
	// zero is the wire sentinel for "this site does not report epochs".
	epochSalt uint64

	// durability; see durability.go
	wal    WAL      // optional journal; see AttachWAL
	walErr error    // sticky journal failure: the site refuses mutations
	staged [][]byte // encoded ops applied in memory this batch, not yet appended

	// replica role; see role.go. standbyFlag marks a standby applying the
	// primary's stream; fencedFlag marks a deposed primary that must never
	// mutate again. Atomics so the lock-free read path can consult them.
	standbyFlag atomic.Bool
	fencedFlag  atomic.Bool
	fenceCause  string // guarded by mu

	// replStatus, when set, supplies the replication section of Status():
	// internal/replica registers its Primary/Standby here. Atomic and
	// invoked before the site lock is taken, because the provider holds its
	// own locks and may call back into the site.
	replStatus atomic.Pointer[func() ReplicationStatus]

	// stats
	prepared, committed, aborted, expired uint64

	// read path: the last published epoch. Never nil after NewSite/RestoreSite.
	view atomic.Pointer[siteView]

	// watchCh is the epoch-change broadcast: publishLocked installs a fresh
	// channel and closes the previous one after storing the new view, so a
	// waiter that loads the channel and then re-checks the view can never
	// miss a publish. Never nil after the first publish.
	watchCh atomic.Pointer[chan struct{}]

	// write path: admission queue state (guarded by qmu, not mu).
	qmu   sync.Mutex
	queue []*pendingWrite
	qbusy bool // a batch leader is draining the queue
}

// NewSite creates a site with the given scheduler configuration, starting
// at time now.
func NewSite(name string, cfg core.Config, now period.Time) (*Site, error) {
	sched, err := core.New(cfg, now)
	if err != nil {
		return nil, err
	}
	s := &Site{
		name:           name,
		sched:          sched,
		holds:          make(map[string]Hold),
		committedHolds: make(map[string]Hold),
		epochSalt:      newEpochSalt(),
		// One shared cap==len attr slice for every span this site opens;
		// Annotate copies on append, so sharing is safe and saves an
		// allocation per request on the always-on tracing path.
		spanAttrs: []slog.Attr{slog.String("site", name)},
	}
	s.publishLocked()
	return s, nil
}

// newEpochSalt draws the per-incarnation epoch offset: random (so distinct
// site lifetimes occupy disjoint epoch ranges), nonzero, and small enough
// that salt + calendar epoch cannot wrap uint64 in any realistic lifetime.
func newEpochSalt() uint64 {
	var b [7]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the boot instant, which still differs across restarts.
		return uint64(time.Now().UnixNano()) | 1
	}
	var salt uint64
	for _, x := range b {
		salt = salt<<8 | uint64(x)
	}
	return salt | 1
}

// SetRecorder attaches a flight recorder: from now on, requests carrying
// trace context record their site-side spans into it. Safe to call on a
// serving site.
func (s *Site) SetRecorder(rec *obs.Recorder) { s.recorder.Store(rec) }

// Recorder returns the attached flight recorder, or nil.
func (s *Site) Recorder() *obs.Recorder { return s.recorder.Load() }

// startSpan opens this site's local fragment of a remote trace. It returns
// nil — and every span operation downstream degrades to a nil check — when
// no recorder is attached or the request carried no trace context.
func (s *Site) startSpan(tc obs.SpanContext, name string) *obs.ActiveSpan {
	return s.recorder.Load().StartRemoteChild(tc, name, s.spanAttrs...)
}

// Name returns the site's identifier.
func (s *Site) Name() string { return s.name }

// Servers returns the site's capacity.
func (s *Site) Servers() int { return s.sched.Config().Servers }

// publishLocked installs a fresh epoch view. Called at construction,
// restore, replay, and at the end of every successful mutation batch; the
// caller holds s.mu (or has exclusive access). A poisoned site never
// publishes: its memory is ahead of the durable state, and the read path
// must keep serving the last state the journal describes.
func (s *Site) publishLocked() {
	if s.wal != nil && s.walErr != nil {
		return
	}
	cv := s.sched.PublishView()
	epoch := s.epochSalt + cv.Epoch()
	s.view.Store(&siteView{
		cal:         cv,
		epoch:       epoch,
		salt:        s.epochSalt,
		prepared:    s.prepared,
		committed:   s.committed,
		aborted:     s.aborted,
		expired:     s.expired,
		lookupAttrs: []slog.Attr{slog.String("site", s.name), slog.Uint64("epoch", epoch)},
	})
	// Wake epoch watchers only after the new view is visible: a waiter that
	// loaded the old channel re-checks the view before blocking, so the
	// store-then-close order guarantees it either sees this epoch or gets
	// the close.
	ch := make(chan struct{})
	if old := s.watchCh.Swap(&ch); old != nil {
		close(*old)
	}
}

// WaitEpoch blocks until the site's published epoch differs from after, or
// timeout elapses. It returns the current epoch, the incarnation salt, the
// site clock, and whether the epoch differs from after. A caller passing
// after=0 gets the current epoch immediately (published epochs are never
// zero), which is how a watch subscription establishes its baseline. This
// is the server half of the wire watch long-poll: cheap to park (one
// channel receive, no lock) and woken by publishLocked the instant a
// mutation batch publishes.
func (s *Site) WaitEpoch(after uint64, timeout time.Duration) (epoch, salt uint64, siteNow period.Time, changed bool) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Load the channel before the view: if a publish lands between the
		// two loads we see its view (return now); if it lands after, it
		// closes the channel we hold.
		chp := s.watchCh.Load()
		v := s.view.Load()
		if v.epoch != after {
			return v.epoch, v.salt, v.cal.Now(), true
		}
		select {
		case <-*chp:
		case <-timer.C:
			return v.epoch, v.salt, v.cal.Now(), false
		}
	}
}

// submitWrite runs exec through the admission queue. The first submitter to
// find the queue idle becomes the batch leader: it drains the queue in
// bounded batches, running each batch's execs under one lock acquisition,
// flushing their journal records as one group commit, and publishing one
// fresh view. Followers enqueue and block until their write's batch
// completes. exec runs with s.mu held and must not block.
func (s *Site) submitWrite(exec func() error) error { return s.submitWriteTraced(nil, exec) }

// submitWriteTraced is submitWrite with the submitter's span attached, so
// the batch leader can record how long the write waited in the admission
// queue and how long its group commit took.
func (s *Site) submitWriteTraced(sp *obs.ActiveSpan, exec func() error) error {
	w := &pendingWrite{exec: exec, done: make(chan struct{}), sp: sp}
	if sp != nil {
		w.enqueued = time.Now()
	}
	s.qmu.Lock()
	s.queue = append(s.queue, w)
	if s.qbusy {
		s.qmu.Unlock()
		<-w.done
		return w.err
	}
	s.qbusy = true
	s.qmu.Unlock()
	for {
		s.qmu.Lock()
		if len(s.queue) == 0 {
			s.qbusy = false
			s.qmu.Unlock()
			break
		}
		batch := s.queue
		if len(batch) > maxWriteBatch {
			batch = batch[:maxWriteBatch]
			s.queue = append([]*pendingWrite(nil), s.queue[maxWriteBatch:]...)
		} else {
			s.queue = nil
		}
		s.qmu.Unlock()
		s.runBatch(batch)
	}
	<-w.done
	return w.err
}

// runBatch applies one batch of queued mutations under a single lock
// acquisition: every exec runs back to back, their staged journal records
// are flushed as one group commit, and — if the journal accepted them — one
// fresh epoch view is published. A journal failure poisons the site and is
// reported to every writer in the batch whose exec had succeeded, honoring
// append-before-acknowledge: no mutation is acknowledged unless its record
// is durable.
func (s *Site) runBatch(batch []*pendingWrite) {
	traced := false
	for _, w := range batch {
		if w.sp != nil {
			traced = true
			break
		}
	}
	s.mu.Lock()
	if traced {
		// Queue wait: from enqueue to the moment the batch holds the lock.
		lockAt := time.Now()
		for _, w := range batch {
			if w.sp != nil {
				w.sp.Record("site.queue.wait", w.enqueued, lockAt, slog.Int("batch", len(batch)))
			}
		}
	}
	for _, w := range batch {
		w.err = w.exec()
	}
	// The group commit is one fsync shared by the batch; each traced write
	// gets its own copy of the flush span (it paid the full wait either way).
	flushing := traced && s.wal != nil && len(s.staged) > 0
	var f0 time.Time
	if flushing {
		f0 = time.Now()
	}
	if err := s.flushStagedLocked(); err != nil {
		for _, w := range batch {
			if w.err == nil {
				w.err = err
			}
		}
	} else {
		s.publishLocked()
	}
	if flushing {
		f1 := time.Now()
		for _, w := range batch {
			if w.sp != nil {
				w.sp.Record("site.wal.flush", f0, f1, slog.Int("batch", len(batch)))
			}
		}
	}
	s.mu.Unlock()
	for _, w := range batch {
		close(w.done)
	}
}

// advanceLocked moves the site clock and lazily expires stale holds. Each
// expiry is a state mutation and is journaled; once the journal has failed
// the site freezes instead, so memory drifts no further from durable state.
// Committed holds whose windows have closed are pruned — a pure, memoryless
// function of now, so replay converges to the same map without journaling
// the prunes (ReplayOp applies the identical rule at each record's Now).
func (s *Site) advanceLocked(now period.Time) {
	if s.wal != nil && s.walErr != nil {
		return
	}
	s.sched.Advance(now)
	for id, h := range s.holds {
		if h.Expires <= now {
			// The broker never decided: release the lease.
			if err := s.sched.Release(h.Alloc, h.Alloc.Start); err == nil {
				s.expired++
				s.event(obs.EventExpire, slog.String("hold", id), slog.Int64("expired", int64(h.Expires)))
			}
			delete(s.holds, id)
			if err := s.stageOpLocked(Op{Kind: OpExpire, Now: now, HoldID: id}); err != nil {
				return
			}
		}
	}
	s.pruneCommittedLocked(now)
}

// pruneCommittedLocked drops committed holds whose windows have closed:
// there is nothing left to compensate once the job's time has passed.
func (s *Site) pruneCommittedLocked(now period.Time) {
	for id, h := range s.committedHolds {
		if h.Alloc.End <= now {
			delete(s.committedHolds, id)
		}
	}
}

// Probe reports how many servers the site could co-allocate over
// [start, end) as of now, without committing anything. When now is at or
// before the published epoch it is answered lock-free from the epoch view;
// a probe that moves the clock forward must expire leases, which is a
// mutation, so it rides the write queue instead.
func (s *Site) Probe(now, start, end period.Time) int {
	if v := s.view.Load(); v != nil && (now <= v.cal.Now() || s.readsFrozen()) {
		return v.cal.Available(start, end)
	}
	n := 0
	_ = s.submitWrite(func() error {
		s.advanceLocked(now)
		n = s.sched.Available(start, end)
		return nil
	})
	return n
}

// ProbeViewTraced is Probe extended with the metadata a caching broker
// needs: the epoch the answer was computed at and the site clock it is
// valid through. An answer may be reused for any later probe whose now does
// not exceed siteNow, for as long as the site keeps reporting the same
// epoch; the first mutation (or slot rotation) bumps the epoch and retires
// every answer computed before it. Served lock-free from the published view
// whenever now does not move the clock; a clock-moving probe rides the
// write queue and reports the post-advance epoch.
//
// With a valid tc the site's side of the work is recorded as a fragment of
// the caller's trace: a lock-free answer is a single view-lookup span
// stamped with the answering epoch, a clock-moving answer records its
// admission-queue ride. A zero tc records nothing.
func (s *Site) ProbeViewTraced(tc obs.SpanContext, now, start, end period.Time) (n int, epoch uint64, siteNow period.Time) {
	if v := s.view.Load(); v != nil && (now <= v.cal.Now() || s.readsFrozen()) {
		// The view lookup is the whole request here, so the fragment is one
		// span admitted directly — no traceBuf, no handle — stamped with
		// the epoch of the view that answered. Probes are the federation's
		// hot path; this is the cheapest always-on tracing the recorder has.
		if rec := s.recorder.Load(); rec != nil && tc.Valid() {
			t0 := time.Now()
			n = v.cal.Available(start, end)
			rec.RecordRemoteSpan(tc, "site.probe", t0, time.Now(), v.lookupAttrs...)
			return n, v.epoch, v.cal.Now()
		}
		return v.cal.Available(start, end), v.epoch, v.cal.Now()
	}
	sp := s.startSpan(tc, "site.probe")
	sp.Annotate(slog.Bool("clock_advance", true))
	_ = s.submitWriteTraced(sp, func() error {
		s.advanceLocked(now)
		n = s.sched.Available(start, end)
		epoch = s.epochSalt + s.sched.MutationEpoch()
		siteNow = s.sched.Now()
		return nil
	})
	sp.End()
	return n, epoch, siteNow
}

// RangeSearchViewTraced is RangeSearch extended with the same cacheability
// metadata and trace fragment as ProbeViewTraced.
func (s *Site) RangeSearchViewTraced(tc obs.SpanContext, now, start, end period.Time) (feasible []period.Period, epoch uint64, siteNow period.Time) {
	if v := s.view.Load(); v != nil && (now <= v.cal.Now() || s.readsFrozen()) {
		if rec := s.recorder.Load(); rec != nil && tc.Valid() {
			t0 := time.Now()
			feasible = v.cal.RangeSearch(start, end)
			rec.RecordRemoteSpan(tc, "site.range", t0, time.Now(), v.lookupAttrs...)
			return feasible, v.epoch, v.cal.Now()
		}
		return v.cal.RangeSearch(start, end), v.epoch, v.cal.Now()
	}
	sp := s.startSpan(tc, "site.range")
	sp.Annotate(slog.Bool("clock_advance", true))
	_ = s.submitWriteTraced(sp, func() error {
		s.advanceLocked(now)
		feasible = s.sched.RangeSearch(start, end)
		epoch = s.epochSalt + s.sched.MutationEpoch()
		siteNow = s.sched.Now()
		return nil
	})
	sp.End()
	return feasible, epoch, siteNow
}

// Epoch returns the site's current availability epoch, as of the last
// published view.
func (s *Site) Epoch() uint64 {
	if v := s.view.Load(); v != nil {
		return v.epoch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epochSalt + s.sched.MutationEpoch()
}

// RangeSearch returns every idle period feasible for [start, end) as of now
// without committing anything — the user-facing range search of §4.2,
// served lock-free from the epoch view whenever now does not move the
// clock.
func (s *Site) RangeSearch(now, start, end period.Time) []period.Period {
	if v := s.view.Load(); v != nil && (now <= v.cal.Now() || s.readsFrozen()) {
		return v.cal.RangeSearch(start, end)
	}
	var out []period.Period
	_ = s.submitWrite(func() error {
		s.advanceLocked(now)
		out = s.sched.RangeSearch(start, end)
		return nil
	})
	return out
}

// Prepare attempts to reserve `servers` servers over [start, end) under the
// given hold ID, leased until now+lease. On success the servers are
// committed in the site calendar but remain revocable until Commit or lease
// expiry.
func (s *Site) Prepare(now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration) ([]int, error) {
	return s.PrepareConflictTraced(obs.SpanContext{}, now, holdID, start, end, servers, lease, 0)
}

// PrepareConflictTraced is Prepare recording the site's side — queue wait,
// journal flush — as a fragment of the caller's trace (parented under the
// broker's prepare span; a zero tc records nothing), for callers that may
// have probed first: probedEpoch is the site epoch their availability
// answer was computed at (zero when unknown, which disables the conflict
// classification). When the scheduler refuses the window for capacity and
// the site's epoch has moved past probedEpoch, the refusal is classified as a *ConflictError — the servers
// were (as far as the caller knew) free at probe time and were taken since,
// so the same window may succeed with a different split. A refusal at an
// unmoved epoch means the probe itself overstated what this exact window
// can hold (or the caller over-asked) and stays a plain error: retrying
// without new information cannot help.
func (s *Site) PrepareConflictTraced(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	if holdID == "" || servers <= 0 || end <= start || lease <= 0 {
		return nil, fmt.Errorf("grid %s: invalid prepare (hold %q, %d servers, [%d,%d), lease %d)",
			s.name, holdID, servers, start, end, lease)
	}
	sp := s.startSpan(tc, "site.prepare")
	sp.Annotate(slog.String("hold", holdID), slog.Int("servers", servers))
	var granted []int
	err := s.submitWriteTraced(sp, func() error {
		if err := s.roleOKLocked(); err != nil {
			return err
		}
		s.advanceLocked(now)
		if err := s.walOKLocked(); err != nil {
			return err
		}
		if _, dup := s.holds[holdID]; dup {
			return fmt.Errorf("grid %s: hold %q already exists", s.name, holdID)
		}
		if _, dup := s.committedHolds[holdID]; dup {
			return fmt.Errorf("grid %s: hold %q already exists", s.name, holdID)
		}
		if start < now {
			return fmt.Errorf("grid %s: window start %d in the past (now %d)", s.name, start, now)
		}
		// One shot at the exact window — cross-site atomicity requires every
		// site to grant the same window, so the retry loop lives in the broker.
		alloc, err := s.sched.Submit(job.Request{
			ID:       holdLocalID(holdID),
			Submit:   now,
			Start:    start,
			Duration: period.Duration(end - start),
			Servers:  servers,
			Deadline: end, // forbid the scheduler from sliding the start
		})
		if err != nil {
			if probedEpoch != 0 && errors.Is(err, core.ErrRejected) {
				if cur := s.epochSalt + s.sched.MutationEpoch(); cur != probedEpoch {
					return &ConflictError{Site: s.name, Epoch: cur, Err: err}
				}
			}
			return fmt.Errorf("grid %s: cannot prepare %d servers at [%d,%d): %w", s.name, servers, start, end, err)
		}
		hold := Hold{ID: holdID, Alloc: alloc, Expires: now.Add(lease)}
		s.holds[holdID] = hold
		s.prepared++
		if err := s.stageOpLocked(Op{Kind: OpPrepare, Now: now, HoldID: holdID, Alloc: alloc, Expires: hold.Expires}); err != nil {
			return err
		}
		s.event(obs.EventPrepare,
			slog.String("hold", holdID),
			slog.Int("servers", servers),
			slog.Int64("start", int64(start)),
			slog.Int64("expires", int64(now.Add(lease))))
		granted = alloc.Servers
		return nil
	})
	sp.Fail(err)
	sp.End()
	if err != nil {
		return nil, err
	}
	return granted, nil
}

// holdLocalID derives a stable numeric job id from a hold id for the local
// scheduler's bookkeeping.
func holdLocalID(holdID string) int64 {
	var h uint64 = 14695981039346656037 // FNV-1a
	for i := 0; i < len(holdID); i++ {
		h ^= uint64(holdID[i])
		h *= 1099511628211
	}
	return int64(h >> 1)
}

// Commit makes a prepared hold durable. Committing an unknown or expired
// hold returns an error — the broker treats that as a protocol violation.
// The hold is remembered until its window ends so a partial cross-site
// commit can still be compensated by Abort.
func (s *Site) Commit(now period.Time, holdID string) error {
	return s.CommitTraced(obs.SpanContext{}, now, holdID)
}

// CommitTraced is Commit as a fragment of the caller's trace.
func (s *Site) CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	sp := s.startSpan(tc, "site.commit")
	sp.Annotate(slog.String("hold", holdID))
	err := s.submitWriteTraced(sp, func() error {
		if err := s.roleOKLocked(); err != nil {
			return err
		}
		s.advanceLocked(now)
		if err := s.walOKLocked(); err != nil {
			return err
		}
		h, ok := s.holds[holdID]
		if !ok {
			return fmt.Errorf("grid %s: commit of unknown or expired hold %q", s.name, holdID)
		}
		delete(s.holds, holdID)
		if h.Alloc.End > now {
			s.committedHolds[holdID] = h
		}
		s.committed++
		if err := s.stageOpLocked(Op{Kind: OpCommit, Now: now, HoldID: holdID}); err != nil {
			return err
		}
		s.event(obs.EventCommit, slog.String("hold", holdID))
		return nil
	})
	sp.Fail(err)
	sp.End()
	return err
}

// Abort releases a hold. A prepared hold is cancelled outright; a hold that
// was already committed (a broker compensating a partial cross-site commit)
// is released from now on — capacity the job consumed before the abort is
// gone, the rest returns to the pool. Aborting an unknown hold is a no-op
// (the lease may already have expired), matching presumed-abort 2PC.
func (s *Site) Abort(now period.Time, holdID string) error {
	return s.AbortTraced(obs.SpanContext{}, now, holdID)
}

// AbortTraced is Abort as a fragment of the caller's trace.
func (s *Site) AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	sp := s.startSpan(tc, "site.abort")
	sp.Annotate(slog.String("hold", holdID))
	err := s.submitWriteTraced(sp, func() error {
		if err := s.roleOKLocked(); err != nil {
			return err
		}
		s.advanceLocked(now)
		if err := s.walOKLocked(); err != nil {
			return err
		}
		h, held := s.holds[holdID]
		if !held {
			ch, committed := s.committedHolds[holdID]
			if !committed {
				return nil
			}
			// Compensating abort: pruneCommittedLocked guarantees End > now
			// here, so the release below is always legal.
			delete(s.committedHolds, holdID)
			releaseErr := s.sched.Release(ch.Alloc, now)
			if releaseErr == nil {
				s.aborted++
			}
			if err := s.stageOpLocked(Op{Kind: OpAbort, Now: now, HoldID: holdID}); err != nil {
				return err
			}
			if releaseErr != nil {
				return fmt.Errorf("grid %s: abort release: %v", s.name, releaseErr)
			}
			s.event(obs.EventAbort, slog.String("hold", holdID), slog.Bool("compensating", true))
			return nil
		}
		delete(s.holds, holdID)
		releaseErr := s.sched.Release(h.Alloc, h.Alloc.Start)
		if releaseErr == nil {
			s.aborted++
		}
		// The hold is gone either way, so the mutation is journaled either way;
		// replay mirrors the same delete-then-try-release sequence.
		if err := s.stageOpLocked(Op{Kind: OpAbort, Now: now, HoldID: holdID}); err != nil {
			return err
		}
		if releaseErr != nil {
			return fmt.Errorf("grid %s: abort release: %v", s.name, releaseErr)
		}
		s.event(obs.EventAbort, slog.String("hold", holdID))
		return nil
	})
	sp.Fail(err)
	sp.End()
	return err
}

// Stats reports the site's protocol counters as of the last published
// epoch, lock-free.
func (s *Site) Stats() (prepared, committed, aborted, expired uint64) {
	if v := s.view.Load(); v != nil {
		return v.prepared, v.committed, v.aborted, v.expired
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prepared, s.committed, s.aborted, s.expired
}

// PendingHolds returns the number of undecided holds. It reads the live
// state under the lock, not the epoch view: on a poisoned site memory runs
// ahead of the durable epoch, and operators debugging that state need to
// see the unacknowledged holds.
func (s *Site) PendingHolds() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.holds)
}

// Utilization reports committed capacity over [a, b).
func (s *Site) Utilization(a, b period.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sched.Utilization(a, b)
}
