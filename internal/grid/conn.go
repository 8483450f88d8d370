package grid

import (
	"time"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// ProbeResult couples a site's availability for a window with its total
// capacity, so one probe round-trip gives a strategy both numbers — the
// split decision never mixes a fresh availability with a stale or failed
// capacity fetch.
type ProbeResult struct {
	Available int
	Capacity  int
	// Epoch is the site's availability epoch the answer was computed at;
	// zero means the answer carries no invalidation signal and must not be
	// cached. See Site.ProbeViewTraced.
	Epoch uint64
	// SiteNow is the site clock the answer is valid through: a later probe
	// with now <= SiteNow and an unchanged Epoch would get the same answer.
	SiteNow period.Time
}

// RangeResult is the epoch-tagged result of a per-site range search.
type RangeResult struct {
	Feasible []period.Period
	Epoch    uint64 // zero: not cacheable (see ProbeResult.Epoch)
	SiteNow  period.Time
}

// Conn is the broker's view of one site: one method per operation of the
// paper's co-allocation loop (§4.2 probe or range search, prepare, commit or
// abort inside the Δt retry ladder) plus the epoch watch that keeps a
// caching broker coherent. Implementations include the in-process LocalConn
// below, the net/rpc client in internal/wire and FailoverConn; tests also
// wrap it for failure injection.
//
// A zero obs.SpanContext means "not traced": the site records nothing for
// the call. A zero probed epoch means "not probed": the site never
// classifies a refusal as a conflict.
type Conn interface {
	// Name returns the site's identifier; brokers prepare sites in Name
	// order to stay deadlock-free across concurrent brokers.
	Name() string
	// Servers returns the site's capacity.
	Servers() (int, error)
	// ProbeTraced reports how many servers could be co-allocated over
	// [start, end) together with the site's capacity, in one round trip.
	ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error)
	// ProbeBatch answers every candidate window in one round trip, each
	// result tagged with the epoch and site clock it was computed under,
	// exactly as the per-window probe would have been.
	ProbeBatch(now period.Time, windows []Window) ([]ProbeResult, error)
	// RangeView lists the idle periods feasible for the window (the
	// user-facing range search of §4.2), tagged with the epoch metadata a
	// caching broker needs.
	RangeView(now, start, end period.Time) (RangeResult, error)
	// PrepareConflict leases servers for the window under holdID (2PC
	// phase 1). probedEpoch is the epoch the caller's probe was answered
	// at, so the site can tell "capacity taken since your probe" (a typed
	// *ConflictError the broker retries in the same window) from "never
	// had capacity" (a plain refusal that burns a Δt rung); see
	// Site.PrepareConflictTraced.
	PrepareConflict(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error)
	// CommitTraced finalizes a hold (2PC phase 2).
	CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error
	// AbortTraced releases a hold.
	AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error
	// WatchEpoch parks until the site's epoch differs from after or maxWait
	// elapses; changed reports which happened.
	WatchEpoch(after uint64, maxWait time.Duration) (ev EpochEvent, changed bool, err error)
}

// Aliases of Conn, kept only for callers that still name them (the
// benchmark harness in perfbench/ embeds all five).
type (
	RangeConn           = Conn
	TracedConn          = Conn
	ConflictPrepareConn = Conn
	WatchConn           = Conn
	BatchProbeConn      = Conn
)

// LocalConn adapts an in-process *Site to the Conn interface.
type LocalConn struct {
	Site *Site
}

// Name implements Conn.
func (l LocalConn) Name() string { return l.Site.Name() }

// Servers implements Conn.
func (l LocalConn) Servers() (int, error) { return l.Site.Servers(), nil }

// ProbeTraced implements Conn.
func (l LocalConn) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error) {
	n, epoch, siteNow := l.Site.ProbeViewTraced(tc, now, start, end)
	return ProbeResult{
		Available: n,
		Capacity:  l.Site.Servers(),
		Epoch:     epoch,
		SiteNow:   siteNow,
	}, nil
}

// ProbeBatch implements Conn: in process there is no round trip to
// amortize, so it simply answers every window from the read path.
func (l LocalConn) ProbeBatch(now period.Time, windows []Window) ([]ProbeResult, error) {
	out := make([]ProbeResult, len(windows))
	capacity := l.Site.Servers()
	for i, w := range windows {
		n, epoch, siteNow := l.Site.ProbeViewTraced(obs.SpanContext{}, now, w.Start, w.End)
		out[i] = ProbeResult{Available: n, Capacity: capacity, Epoch: epoch, SiteNow: siteNow}
	}
	return out, nil
}

// RangeView implements Conn.
func (l LocalConn) RangeView(now, start, end period.Time) (RangeResult, error) {
	feasible, epoch, siteNow := l.Site.RangeSearchViewTraced(obs.SpanContext{}, now, start, end)
	return RangeResult{Feasible: feasible, Epoch: epoch, SiteNow: siteNow}, nil
}

// PrepareConflict implements Conn.
func (l LocalConn) PrepareConflict(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	return l.Site.PrepareConflictTraced(tc, now, holdID, start, end, servers, lease, probedEpoch)
}

// CommitTraced implements Conn.
func (l LocalConn) CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	return l.Site.CommitTraced(tc, now, holdID)
}

// AbortTraced implements Conn.
func (l LocalConn) AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	return l.Site.AbortTraced(tc, now, holdID)
}

// WatchEpoch implements Conn: the in-process long poll is a direct park on
// the site's publish broadcast.
func (l LocalConn) WatchEpoch(after uint64, maxWait time.Duration) (EpochEvent, bool, error) {
	epoch, salt, siteNow, changed := l.Site.WaitEpoch(after, maxWait)
	return EpochEvent{Epoch: epoch, Salt: salt, SiteNow: siteNow}, changed, nil
}

var _ Conn = LocalConn{}
