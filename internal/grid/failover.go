package grid

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// Promoter is a broker's handle for promoting one standby replica;
// internal/wire's ReplicaClient implements it over the replication RPC
// service. It is deliberately free of replica-package types so grid does
// not import the replication layer it triggers.
type Promoter interface {
	// PromoteReplica promotes the standby into a primary; idempotent on an
	// already-promoted node. It returns the first epoch of the new
	// incarnation and the new fencing incarnation.
	PromoteReplica(cause string) (epoch, incarnation uint64, err error)
	// ReplicaPosition returns the standby's journal head (its next expected
	// LSN), so a failover can prefer the most caught-up candidate.
	ReplicaPosition() (uint64, error)
}

// FailoverTarget pairs a standby's site connection (where traffic goes
// after promotion) with the promoter that performs the promotion.
type FailoverTarget struct {
	Conn     Conn
	Promoter Promoter
}

// ErrNoStandby is returned by Failover when every standby is used up or
// none was configured.
var ErrNoStandby = errors.New("grid: no standby available for failover")

// FailoverConn is a site connection that can survive the site: it routes
// every call to an active target (initially the primary) and, on Failover,
// promotes the most caught-up standby and atomically re-targets. The
// broker triggers Failover when the site's circuit breaker sticks open;
// operators can trigger it through gridctl promote. The connection's Name
// never changes — primary and standby are the same logical site.
type FailoverConn struct {
	name string

	mu        sync.Mutex
	active    Conn
	standbys  []FailoverTarget
	failovers int
	lastCause string
	// onRetarget callbacks fire (outside the lock) after every successful
	// re-target. The broker registers a cache drop here: the cache keys by
	// site name, and every entry computed against the deposed primary is
	// void the moment traffic routes to the promoted standby — whether the
	// failover was breaker-driven or an operator's gridctl promote.
	onRetarget []func(target string)
}

// NewFailoverConn builds a failover-aware connection over a primary and
// its standbys, in preference order (position queries reorder at failover
// time).
func NewFailoverConn(primary Conn, standbys ...FailoverTarget) *FailoverConn {
	return &FailoverConn{name: primary.Name(), active: primary, standbys: standbys}
}

// Target returns the connection currently receiving traffic.
func (f *FailoverConn) Target() Conn {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.active
}

// Failovers reports how many promotions this connection performed.
func (f *FailoverConn) Failovers() (int, string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.failovers, f.lastCause
}

// OnRetarget registers a callback to run after every successful failover
// re-target, with the promoted connection's name. Callbacks run outside
// the connection's lock, in registration order, on the goroutine that
// triggered the failover. Not safe to call concurrently with Failover
// traffic — register at setup time (NewBroker does).
func (f *FailoverConn) OnRetarget(fn func(target string)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onRetarget = append(f.onRetarget, fn)
}

// Failover promotes the best-positioned remaining standby and re-targets
// the connection at it. Serialized: concurrent triggers (every probe in a
// fan-out failing at once) perform one promotion. It returns the name of
// the connection now serving — useful for logs even though the site name
// is unchanged — or ErrNoStandby when the standby pool is exhausted.
func (f *FailoverConn) Failover(cause string) (string, error) {
	target, fns, err := f.failoverLocked(cause)
	if err != nil {
		return "", err
	}
	// Fire the re-target hooks after releasing the lock: a hook may call
	// back into the connection (Target, stats) without deadlocking.
	for _, fn := range fns {
		fn(target)
	}
	return target, nil
}

// failoverLocked is Failover's promotion body; it returns the promoted
// target and the retarget callbacks to fire once the lock is released.
func (f *FailoverConn) failoverLocked(cause string) (string, []func(string), error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.standbys) == 0 {
		return "", nil, ErrNoStandby
	}
	// Prefer the standby with the highest journal position: with a
	// semi-sync quorum smaller than the standby count, a laggard may be
	// missing acknowledged work the leader has.
	type cand struct {
		i   int
		pos uint64
	}
	cands := make([]cand, 0, len(f.standbys))
	for i, t := range f.standbys {
		c := cand{i: i}
		if t.Promoter != nil {
			if pos, err := t.Promoter.ReplicaPosition(); err == nil {
				c.pos = pos
			}
		}
		cands = append(cands, c)
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].pos > cands[b].pos })

	var firstErr error
	for _, c := range cands {
		t := f.standbys[c.i]
		if t.Promoter != nil {
			if _, _, err := t.Promoter.PromoteReplica(cause); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
		}
		// Promoted: re-target and retire the candidate from the pool.
		f.active = t.Conn
		f.standbys = append(f.standbys[:c.i], f.standbys[c.i+1:]...)
		f.failovers++
		f.lastCause = cause
		fns := make([]func(string), len(f.onRetarget))
		copy(fns, f.onRetarget)
		return t.Conn.Name(), fns, nil
	}
	if firstErr == nil {
		firstErr = ErrNoStandby
	}
	return "", nil, fmt.Errorf("grid %s: failover failed: %w", f.name, firstErr)
}

// Name implements Conn; it is the site's stable name.
func (f *FailoverConn) Name() string { return f.name }

// Servers implements Conn.
func (f *FailoverConn) Servers() (int, error) { return f.Target().Servers() }

// ProbeTraced implements Conn.
func (f *FailoverConn) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error) {
	return f.Target().ProbeTraced(tc, now, start, end)
}

// ProbeBatch implements Conn.
func (f *FailoverConn) ProbeBatch(now period.Time, windows []Window) ([]ProbeResult, error) {
	return f.Target().ProbeBatch(now, windows)
}

// RangeView implements Conn.
func (f *FailoverConn) RangeView(now, start, end period.Time) (RangeResult, error) {
	return f.Target().RangeView(now, start, end)
}

// PrepareConflict implements Conn.
func (f *FailoverConn) PrepareConflict(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	return f.Target().PrepareConflict(tc, now, holdID, start, end, servers, lease, probedEpoch)
}

// CommitTraced implements Conn.
func (f *FailoverConn) CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	return f.Target().CommitTraced(tc, now, holdID)
}

// AbortTraced implements Conn.
func (f *FailoverConn) AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	return f.Target().AbortTraced(tc, now, holdID)
}

// WatchEpoch implements Conn by delegating to the active target: each long
// poll re-resolves the target, so a watcher loop re-subscribes to the
// promoted standby on its next poll after a failover — and the poll that
// was parked on the deposed primary errors out as a stream gap, which
// drops the site's entries conservatively (the broker's retarget hook has
// usually done so already).
func (f *FailoverConn) WatchEpoch(after uint64, maxWait time.Duration) (EpochEvent, bool, error) {
	return f.Target().WatchEpoch(after, maxWait)
}

var _ Conn = (*FailoverConn)(nil)

// FailoverCapable is how the broker discovers a connection it can fail
// over; *FailoverConn implements it. Discovered by type assertion, so
// brokers over plain connections are unaffected.
type FailoverCapable interface {
	Failover(cause string) (string, error)
}
