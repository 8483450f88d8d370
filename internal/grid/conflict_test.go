package grid

// Conflict-aware federation tests: the typed prepare-conflict classification
// on the site, the broker's same-window conflict retry (re-probe only the
// contended site, keep the prepared prefix), the per-broker affinity offset,
// and the PR's satellite regressions — phase-1 abort accounting, idempotent
// Close, and the instrumented Release path.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// TestSiteConflictClassification pins the classification rule: a capacity
// refusal at a moved epoch is a *ConflictError; the same refusal at the
// probed epoch, or without a probed epoch, stays a plain error — and
// validation failures never classify no matter how stale the epoch is.
func TestSiteConflictClassification(t *testing.T) {
	s := mustSite(t, "x", 4)
	start := period.Time(period.Hour)
	end := start.Add(period.Hour)
	lease := 10 * period.Minute

	// Learn the epoch the way a broker does: through a probe.
	_, probed, _ := s.ProbeViewTraced(obs.SpanContext{}, 0, start, end)
	if probed == 0 {
		t.Fatal("site reports no epoch; conflict classification cannot engage")
	}

	// A foreign broker takes 3 of the 4 servers after our probe.
	if _, err := s.Prepare(0, "foreign", start, end, 3, lease); err != nil {
		t.Fatalf("foreign prepare: %v", err)
	}
	if err := s.Commit(0, "foreign"); err != nil {
		t.Fatalf("foreign commit: %v", err)
	}

	// Asking for 4 now fails for capacity at a moved epoch: a conflict.
	_, err := s.PrepareConflictTraced(obs.SpanContext{}, 0, "mine", start, end, 4, lease, probed)
	if err == nil {
		t.Fatal("prepare of 4 servers with 1 free succeeded")
	}
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale-epoch capacity refusal not classified as conflict: %v", err)
	}
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("conflict error has wrong type: %T", err)
	}
	if ce.Site != "x" || ce.Epoch != s.Epoch() {
		t.Fatalf("conflict carries site %q epoch %d, want %q %d", ce.Site, ce.Epoch, "x", s.Epoch())
	}
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("conflict should still unwrap to the capacity refusal: %v", err)
	}

	// The same refusal at the current epoch is a plain error: the probe was
	// fresh, so retrying the window with new information cannot help.
	_, err = s.PrepareConflictTraced(obs.SpanContext{}, 0, "mine2", start, end, 4, lease, s.Epoch())
	if err == nil || errors.Is(err, ErrConflict) {
		t.Fatalf("current-epoch refusal classified as conflict: %v", err)
	}

	// No probed epoch (a caller that did not probe) stays a plain error too.
	if _, err = s.Prepare(0, "mine3", start, end, 4, lease); err == nil || errors.Is(err, ErrConflict) {
		t.Fatalf("epochless refusal classified as conflict: %v", err)
	}

	// A validation failure with a stale epoch never classifies: only
	// capacity refusals are conflicts.
	if _, err := s.Prepare(0, "dup", start, end, 1, lease); err != nil {
		t.Fatalf("prepare dup: %v", err)
	}
	_, err = s.PrepareConflictTraced(obs.SpanContext{}, 0, "dup", start, end, 1, lease, probed)
	if err == nil || errors.Is(err, ErrConflict) {
		t.Fatalf("duplicate-hold refusal classified as conflict: %v", err)
	}
}

// thiefConn wraps a LocalConn and, on the first conflict-aware prepare,
// first steals servers directly on the site — a foreign broker winning the
// race between this broker's probe and its prepare.
type thiefConn struct {
	LocalConn
	steal      int
	start, end period.Time
	once       sync.Once
}

func (c *thiefConn) PrepareConflict(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	c.once.Do(func() {
		if _, err := c.Site.Prepare(now, "thief", c.start, c.end, c.steal, period.Hour); err != nil {
			panic(err)
		}
		if err := c.Site.Commit(now, "thief"); err != nil {
			panic(err)
		}
	})
	return c.LocalConn.PrepareConflict(tc, now, holdID, start, end, servers, lease, probedEpoch)
}

// TestTryWindowConflictRetrySavesWindow is the tentpole's core scenario:
// sites a,b,c with 4 servers each, a 6-server request split a:4 + b:2, and
// a thief taking 3 servers at b between probe and prepare. The conflict
// retry must keep a's prepared share, re-probe only b, route the residual
// to c, and commit in the same window — no Δt rung burned.
func TestTryWindowConflictRetrySavesWindow(t *testing.T) {
	start := period.Time(period.Hour)
	end := start.Add(period.Hour)

	sa, sb, sc := mustSite(t, "a", 4), mustSite(t, "b", 4), mustSite(t, "c", 4)
	thief := &thiefConn{LocalConn: LocalConn{Site: sb}, steal: 3, start: start, end: end}
	b := mustBrokerConns(t, BrokerConfig{
		MaxAttempts:      2,
		BreakerThreshold: -1,
	}, LocalConn{Site: sa}, thief, LocalConn{Site: sc})

	alloc, err := b.CoAllocate(0, Request{ID: 1, Start: start, Duration: period.Hour, Servers: 6})
	if err != nil {
		t.Fatalf("co-allocate across the conflict: %v", err)
	}
	if alloc.Attempts != 1 {
		t.Fatalf("conflict burned a Δt rung: committed on attempt %d", alloc.Attempts)
	}
	got := map[string]int{}
	for _, sh := range alloc.Shares {
		got[sh.Site] = len(sh.Servers)
	}
	if got["a"] != 4 || got["c"] != 2 || got["b"] != 0 {
		t.Fatalf("retry routed shares %v, want a:4 c:2", got)
	}
	st := b.Stats()
	if st.Conflicts != 1 || st.ConflictRetries != 1 || st.ConflictWindows != 1 || st.ConflictWindowSaved != 1 {
		t.Fatalf("conflict accounting %+v, want 1/1/1/1", st)
	}
	if st.Aborts != 0 {
		t.Fatalf("the saved window aborted %d holds; the prepared prefix should have been kept", st.Aborts)
	}
}

// TestTryWindowConflictRetryDisabledBurnsWindow: with ConflictRetries < 0
// the same race is treated like any other prepare failure — the prepared
// prefix is aborted and the request only succeeds on the next Δt rung.
func TestTryWindowConflictRetryDisabledBurnsWindow(t *testing.T) {
	start := period.Time(period.Hour)
	end := start.Add(period.Hour)

	sa, sb, sc := mustSite(t, "a", 4), mustSite(t, "b", 4), mustSite(t, "c", 4)
	thief := &thiefConn{LocalConn: LocalConn{Site: sb}, steal: 3, start: start, end: end}
	b := mustBrokerConns(t, BrokerConfig{
		MaxAttempts:      2,
		ConflictRetries:  -1,
		BreakerThreshold: -1,
	}, LocalConn{Site: sa}, thief, LocalConn{Site: sc})

	alloc, err := b.CoAllocate(0, Request{ID: 1, Start: start, Duration: period.Hour, Servers: 6})
	if err != nil {
		t.Fatalf("co-allocate: %v", err)
	}
	if alloc.Attempts != 2 {
		t.Fatalf("retry disabled but committed on attempt %d, want the window burned (attempt 2)", alloc.Attempts)
	}
	st := b.Stats()
	if st.Conflicts != 1 || st.ConflictWindows != 1 {
		t.Fatalf("conflict still counts with retries disabled: %+v", st)
	}
	if st.ConflictRetries != 0 || st.ConflictWindowSaved != 0 {
		t.Fatalf("disabled retry path ran anyway: %+v", st)
	}
	if st.Aborts != 1 {
		t.Fatalf("burning the window should abort the prepared prefix once, got %d", st.Aborts)
	}
}

// TestTryWindowAbortAccountingCountsSuccessfulOnly is the 2PC accounting
// regression: phase-1 cleanup must count the aborts that actually landed —
// including the best-effort abort sent to a timed-out site — not the number
// of prepared holds.
func TestTryWindowAbortAccountingCountsSuccessfulOnly(t *testing.T) {
	sa, sb := mustSite(t, "a", 4), mustSite(t, "b", 4)
	ca := &chaosConn{Conn: LocalConn{Site: sa}}
	cb := &chaosConn{Conn: LocalConn{Site: sb}}
	b := mustBrokerConns(t, BrokerConfig{
		MaxAttempts:      1,
		BreakerThreshold: -1,
	}, ca, cb)
	start := period.Time(period.Hour)

	// Round 1: a prepares, b times out with the prepare landed. Both aborts
	// succeed — the one at a and the best-effort one at the timed-out b —
	// so both count.
	cb.failPrepares.Store(1)
	cb.timeoutErrors.Store(true)
	cb.prepareLands.Store(true)
	if _, err := b.CoAllocate(0, Request{ID: 1, Start: start, Duration: period.Hour, Servers: 6}); err == nil {
		t.Fatal("co-allocate across a timed-out prepare succeeded")
	}
	if got := b.Stats().Aborts; got != 2 {
		t.Fatalf("round 1 counted %d aborts, want 2 (prepared site + timed-out site)", got)
	}
	if got := cb.abortCalls.Load(); got != 1 {
		t.Fatalf("timed-out site received %d abort attempts, want 1", got)
	}
	if sb.Probe(0, start, start.Add(period.Hour)) != 4 {
		t.Fatal("best-effort abort did not release the landed hold at the timed-out site")
	}

	// Round 2: same failure, but now every abort fails too. Nothing was
	// released, so the counter must not move.
	cb.failPrepares.Store(1)
	ca.failAborts.Store(1)
	cb.failAborts.Store(1)
	if _, err := b.CoAllocate(0, Request{ID: 2, Start: start, Duration: period.Hour, Servers: 6}); err == nil {
		t.Fatal("co-allocate across a timed-out prepare succeeded")
	}
	if got := b.Stats().Aborts; got != 2 {
		t.Fatalf("failed aborts were counted: Aborts = %d, want still 2", got)
	}
}

// TestBrokerCloseIdempotent is the lifecycle regression: Close on a broker
// with watch loops running must be safe to call repeatedly and from
// concurrent goroutines.
func TestBrokerCloseIdempotent(t *testing.T) {
	s := mustSite(t, "w", 4)
	b := mustBrokerConns(t, BrokerConfig{
		ProbeCache: true,
		CacheWatch: true,
		WatchPoll:  20 * time.Millisecond,
	}, LocalConn{Site: s})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.Close(); err != nil {
				t.Errorf("concurrent close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := b.Close(); err != nil {
		t.Fatalf("close after close: %v", err)
	}

	// A broker without watchers closes trivially too.
	plain := mustBroker(t, BrokerConfig{}, mustSite(t, "p", 2))
	if err := plain.Close(); err != nil {
		t.Fatalf("close without watchers: %v", err)
	}
	if err := plain.Close(); err != nil {
		t.Fatalf("double close without watchers: %v", err)
	}
}

// TestReleaseFeedsBreakerAndRecorder is the Release-path regression: abort
// failures during an early release must open the site's breaker like any
// other 2PC traffic, a later release must skip the opened site fast, and
// the whole release must appear in the flight recorder.
func TestReleaseFeedsBreakerAndRecorder(t *testing.T) {
	s := mustSite(t, "r", 4)
	c := &chaosConn{Conn: LocalConn{Site: s}}
	b := mustBrokerConns(t, BrokerConfig{
		MaxAttempts:      1,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
	}, c)
	start := period.Time(period.Hour)

	alloc, err := b.CoAllocate(0, Request{ID: 1, Start: start, Duration: period.Hour, Servers: 2})
	if err != nil {
		t.Fatalf("co-allocate: %v", err)
	}

	c.failAborts.Store(10)
	if err := b.Release(0, alloc); err == nil {
		t.Fatal("release with failing aborts reported success")
	}
	if h := b.Health(); h[0].State != "open" {
		t.Fatalf("failed release abort did not open the breaker: %+v", h)
	}
	if err := b.Release(0, alloc); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("release behind an open breaker should skip fast with ErrCircuitOpen, got %v", err)
	}

	found := false
	for _, tr := range b.Recorder().Traces(obs.TraceQuery{}) {
		if tr.Root == "broker.release" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no broker.release trace in the flight recorder")
	}
}

// TestAffinityOffsetAndRotation pins the per-broker affinity offset: the
// hash is deterministic and in range, and the rotation only changes which
// equal-availability site a strategy reaches first — never feasibility.
func TestAffinityOffsetAndRotation(t *testing.T) {
	if AffinityOffset("any", 0) != 0 {
		t.Fatal("offset over zero sites must be 0")
	}
	for _, name := range []string{"b00", "b01", "broker", ""} {
		off := AffinityOffset(name, 5)
		if off < 0 || off >= 5 {
			t.Fatalf("offset %d for %q out of range", off, name)
		}
		if off != AffinityOffset(name, 5) {
			t.Fatalf("offset for %q not deterministic", name)
		}
	}

	conns := make([]Conn, 3)
	avail := make([]Avail, 3)
	for i, name := range []string{"s0", "s1", "s2"} {
		conns[i] = LocalConn{Site: mustSiteQuiet(name, 4)}
		avail[i] = Avail{Conn: conns[i], Available: 4, Capacity: 4}
	}
	for off := 0; off < 3; off++ {
		a := Affinity{S: Greedy{}, Offset: off}
		shares, err := a.Split(4, avail)
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		if len(shares) != 1 || shares[0].Conn.Name() != conns[off].Name() {
			t.Fatalf("offset %d picked %s, want %s", off, shares[0].Conn.Name(), conns[off].Name())
		}
		// Rotation must not change feasibility: the full grid still fits.
		full, err := a.Split(12, avail)
		if err != nil {
			t.Fatalf("offset %d full split: %v", off, err)
		}
		total := 0
		for _, sh := range full {
			total += sh.Servers
		}
		if total != 12 {
			t.Fatalf("offset %d full split assigned %d of 12", off, total)
		}
	}
	if (Affinity{S: Greedy{}}).Name() != "greedy+affinity" {
		t.Fatalf("affinity name = %q", Affinity{S: Greedy{}}.Name())
	}
}

// TestConflictErrorMessageAndStrategyNames pins the conflict error's two
// rendering branches (with and without an underlying refusal) and the
// registered strategy names a conflict-retrying gridctl run can ask for.
func TestConflictErrorMessageAndStrategyNames(t *testing.T) {
	bare := &ConflictError{Site: "a", Epoch: 7}
	if msg := bare.Error(); !strings.Contains(msg, "grid a") || !strings.Contains(msg, "7") {
		t.Fatalf("bare conflict message %q", msg)
	}
	wrapped := &ConflictError{Site: "a", Epoch: 7, Err: errors.New("boom")}
	if msg := wrapped.Error(); !strings.Contains(msg, "boom") {
		t.Fatalf("wrapped conflict message %q drops the cause", msg)
	}
	for _, name := range []string{"greedy", "single", "balance"} {
		s := StrategyByName(name)
		if s == nil || s.Name() != name {
			t.Fatalf("StrategyByName(%q) = %v", name, s)
		}
	}
	if StrategyByName("nope") != nil {
		t.Fatal("unknown strategy resolved")
	}
}
