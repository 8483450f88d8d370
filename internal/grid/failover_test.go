package grid

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// fakePromoter records promotions and reports a fixed journal position.
type fakePromoter struct {
	pos      uint64
	fail     error
	promoted atomic.Int64
	epoch    uint64
	inc      uint64
}

func (f *fakePromoter) PromoteReplica(cause string) (uint64, uint64, error) {
	if f.fail != nil {
		return 0, 0, f.fail
	}
	f.promoted.Add(1)
	return f.epoch, f.inc, nil
}

func (f *fakePromoter) ReplicaPosition() (uint64, error) { return f.pos, nil }

// sitePromoter promotes a real standby *Site — the in-process stand-in for
// wire.ReplicaClient against a replica.Standby.
type sitePromoter struct {
	site *Site
	pos  uint64
}

func (s *sitePromoter) PromoteReplica(cause string) (uint64, uint64, error) {
	epoch, err := s.site.Promote()
	return epoch, 2, err
}

func (s *sitePromoter) ReplicaPosition() (uint64, error) { return s.pos, nil }

func TestFailoverConnPromotesMostCaughtUp(t *testing.T) {
	primary := mustSite(t, "s0", 8)
	sbA := mustSite(t, "s0", 8)
	sbB := mustSite(t, "s0", 8)
	lag := &fakePromoter{pos: 5, epoch: 100, inc: 2}
	lead := &fakePromoter{pos: 9, epoch: 200, inc: 2}
	fc := NewFailoverConn(LocalConn{Site: primary},
		FailoverTarget{Conn: LocalConn{Site: sbA}, Promoter: lag},
		FailoverTarget{Conn: LocalConn{Site: sbB}, Promoter: lead},
	)
	if fc.Name() != "s0" {
		t.Fatalf("name = %q", fc.Name())
	}
	if fc.Target().(LocalConn).Site != primary {
		t.Fatal("initial target is not the primary")
	}

	if _, err := fc.Failover("test"); err != nil {
		t.Fatal(err)
	}
	if lead.promoted.Load() != 1 || lag.promoted.Load() != 0 {
		t.Fatalf("promoted lead=%d lag=%d; want the most caught-up standby only",
			lead.promoted.Load(), lag.promoted.Load())
	}
	if fc.Target().(LocalConn).Site != sbB {
		t.Fatal("target not re-pointed at the promoted standby")
	}
	if n, cause := fc.Failovers(); n != 1 || cause != "test" {
		t.Fatalf("failovers = %d, %q", n, cause)
	}

	// Second failover exhausts the pool onto the laggard; a third finds it
	// empty.
	if _, err := fc.Failover("again"); err != nil {
		t.Fatal(err)
	}
	if lag.promoted.Load() != 1 {
		t.Fatal("second failover did not promote the remaining standby")
	}
	if _, err := fc.Failover("dry"); !errors.Is(err, ErrNoStandby) {
		t.Fatalf("exhausted pool: %v", err)
	}
}

func TestFailoverSkipsFailedPromotion(t *testing.T) {
	primary := mustSite(t, "s0", 8)
	sbA := mustSite(t, "s0", 8)
	sbB := mustSite(t, "s0", 8)
	broken := &fakePromoter{pos: 9, fail: errors.New("standby unreachable")}
	ok := &fakePromoter{pos: 5, epoch: 300, inc: 2}
	fc := NewFailoverConn(LocalConn{Site: primary},
		FailoverTarget{Conn: LocalConn{Site: sbA}, Promoter: broken},
		FailoverTarget{Conn: LocalConn{Site: sbB}, Promoter: ok},
	)
	if _, err := fc.Failover("test"); err != nil {
		t.Fatal(err)
	}
	if ok.promoted.Load() != 1 {
		t.Fatal("fallback standby not promoted after the preferred one failed")
	}
	if fc.Target().(LocalConn).Site != sbB {
		t.Fatal("target not pointed at the fallback standby")
	}
}

// TestBrokerFailoverOnBreakerOpen is the end-to-end trigger test: a
// primary that stops answering opens its breaker, the broker promotes the
// standby through the FailoverConn, resets the breaker, and the next round
// reaches the promoted site under the same name.
func TestBrokerFailoverOnBreakerOpen(t *testing.T) {
	reg := obs.NewRegistry()
	primary := mustSite(t, "s0", 8)
	standby := mustSite(t, "s0", 8)
	standby.SetStandby(true)

	failing := &failingConn{Conn: LocalConn{Site: primary}}
	fc := NewFailoverConn(failing,
		FailoverTarget{Conn: LocalConn{Site: standby}, Promoter: &sitePromoter{site: standby, pos: 1}})
	b := mustBrokerConns(t, BrokerConfig{
		BreakerThreshold: 2,
		ProbeCache:       true,
		Registry:         reg,
	}, fc)

	window := func(i int) (period.Time, period.Time) {
		s := period.Time(int64(i) * int64(period.Hour))
		return s, s.Add(30 * period.Minute)
	}

	// Healthy round primes the cache from the primary.
	s0, e0 := window(0)
	if res := b.ProbeAll(0, s0, e0); res[0].Err != nil {
		t.Fatalf("healthy probe failed: %v", res[0].Err)
	}
	preEpoch := primary.Epoch()

	// Two consecutive failures open the breaker and trigger the failover.
	failing.failProbe = true
	for i := 1; i <= 2; i++ {
		s, e := window(i)
		b.ProbeAll(0, s, e)
	}
	if got := reg.Counter("broker.site.failovers").Value(); got != 1 {
		t.Fatalf("failovers counter = %d, want 1", got)
	}
	if standby.Standby() {
		t.Fatal("standby was not promoted")
	}
	if fc.Target().(LocalConn).Site != standby {
		t.Fatal("broker's connection not re-targeted")
	}
	if standby.Epoch() == preEpoch {
		t.Fatal("promotion kept the old epoch salt")
	}

	// The breaker was reset: the very next round reaches the promoted
	// standby without waiting out a cooldown.
	s3, e3 := window(3)
	res := b.ProbeAll(0, s3, e3)
	if res[0].Err != nil {
		t.Fatalf("post-failover probe failed: %v", res[0].Err)
	}
	for _, h := range b.Health() {
		if h.State != "closed" {
			t.Fatalf("breaker %s after failover, want closed", h.State)
		}
	}
}

// TestFailoverDropsPreFailoverCache is the cache-poisoning regression
// (satellite 2): the availability cache is keyed per site NAME, so without
// an explicit drop a promoted standby under the same name could be
// answered by entries computed on the dead primary. The failover hook
// invalidates site-wide; this test pins that the pre-failover entry is
// gone (the repeat probe performs a round trip).
func TestFailoverDropsPreFailoverCache(t *testing.T) {
	primary := mustSite(t, "s0", 8)
	standby := mustSite(t, "s0", 8)
	standby.SetStandby(true)

	failing := &failingConn{Conn: LocalConn{Site: primary}}
	counting := &countingConn{Conn: LocalConn{Site: standby}}
	fc := NewFailoverConn(failing,
		FailoverTarget{Conn: counting, Promoter: &sitePromoter{site: standby, pos: 1}})
	b := mustBrokerConns(t, BrokerConfig{BreakerThreshold: 2, ProbeCache: true}, fc)

	s0 := period.Time(0)
	e0 := s0.Add(30 * period.Minute)
	if res := b.ProbeAll(0, s0, e0); res[0].Err != nil {
		t.Fatalf("prime probe: %v", res[0].Err)
	}
	// Same window again: served from cache, no round trip anywhere.
	b.ProbeAll(0, s0, e0)
	if got := b.CacheStats().Hits; got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}

	failing.failProbe = true
	for i := 1; i <= 2; i++ {
		s := period.Time(int64(i) * int64(period.Hour))
		b.ProbeAll(0, s, s.Add(30*period.Minute))
	}
	if b.CacheStats().Invalidations == 0 {
		t.Fatal("failover did not invalidate the site's cache")
	}

	// The exact pre-failover window must go back to the (promoted) site,
	// not be served from the primary's ghost entry.
	before := counting.probeCount()
	if res := b.ProbeAll(0, s0, e0); res[0].Err != nil {
		t.Fatalf("post-failover probe: %v", res[0].Err)
	}
	if counting.probeCount() != before+1 {
		t.Fatal("pre-failover cache entry served after promotion")
	}
}

// TestEpochSaltRetiresStaleEntries pins the second line of defense behind
// the eager invalidation: even if a broker re-targeted a connection at a
// promoted standby WITHOUT dropping the cache (a broker that missed the
// failover — or a second broker sharing the federation), the promotion's
// fresh epoch salt makes the first fresh reply retire every entry cached
// under the old primary's epoch.
func TestEpochSaltRetiresStaleEntries(t *testing.T) {
	primary := mustSite(t, "s0", 8)
	standby := mustSite(t, "s0", 8)
	standby.SetStandby(true)

	// A connection the test re-targets by hand, with no FailoverCapable
	// surface — the broker cannot notice the swap.
	var target atomic.Pointer[Site]
	target.Store(primary)
	swap := swapConn{target: &target}
	b := mustBrokerConns(t, BrokerConfig{ProbeCache: true, BreakerThreshold: -1}, swap)

	s0 := period.Time(0)
	e0 := s0.Add(30 * period.Minute)
	b.ProbeAll(0, s0, e0) // cached under the primary's epoch

	if _, err := standby.Promote(); err != nil {
		t.Fatal(err)
	}
	target.Store(standby)

	// A different window misses, reaches the promoted standby, and its
	// reply's new epoch retires the whole site cache.
	s1 := period.Time(int64(period.Hour))
	b.ProbeAll(0, s1, s1.Add(30*period.Minute))
	if got := b.CacheStats().Stale; got == 0 {
		t.Fatal("new epoch did not retire the old primary's entries")
	}
	stats := b.CacheStats()
	// And the old window is a miss now, not a ghost hit.
	b.ProbeAll(0, s0, e0)
	if got := b.CacheStats().Hits; got != stats.Hits {
		t.Fatal("stale pre-promotion entry served as a hit")
	}
}

// swapConn serves whatever site its pointer currently holds, under that
// site's name.
type swapConn struct {
	target *atomic.Pointer[Site]
}

func (s swapConn) local() LocalConn      { return LocalConn{Site: s.target.Load()} }
func (s swapConn) Name() string          { return s.local().Name() }
func (s swapConn) Servers() (int, error) { return s.local().Servers() }
func (s swapConn) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error) {
	return s.local().ProbeTraced(tc, now, start, end)
}
func (s swapConn) ProbeBatch(now period.Time, windows []Window) ([]ProbeResult, error) {
	return s.local().ProbeBatch(now, windows)
}
func (s swapConn) RangeView(now, start, end period.Time) (RangeResult, error) {
	return s.local().RangeView(now, start, end)
}
func (s swapConn) PrepareConflict(tc obs.SpanContext, now period.Time, holdID string, start, end period.Time, servers int, lease period.Duration, probedEpoch uint64) ([]int, error) {
	return s.local().PrepareConflict(tc, now, holdID, start, end, servers, lease, probedEpoch)
}
func (s swapConn) CommitTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	return s.local().CommitTraced(tc, now, holdID)
}
func (s swapConn) AbortTraced(tc obs.SpanContext, now period.Time, holdID string) error {
	return s.local().AbortTraced(tc, now, holdID)
}
func (s swapConn) WatchEpoch(after uint64, maxWait time.Duration) (EpochEvent, bool, error) {
	return s.local().WatchEpoch(after, maxWait)
}
