package grid

import (
	"runtime"
	"sync"
	"testing"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// countingConn counts probe round trips and can hold every in-flight probe
// on a gate, so tests can park N concurrent probes inside one flight.
type countingConn struct {
	Conn
	mu     sync.Mutex
	probes int
	gate   chan struct{} // when non-nil, probes block here until closed
}

func (c *countingConn) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error) {
	c.mu.Lock()
	c.probes++
	gate := c.gate
	c.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return c.Conn.ProbeTraced(tc, now, start, end)
}

func (c *countingConn) probeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.probes
}

// stripEpochConn erases the epoch metadata from replies, so the broker sees
// Epoch == 0: an answer with no invalidation signal.
type stripEpochConn struct {
	Conn
}

func (c *stripEpochConn) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error) {
	r, err := c.Conn.ProbeTraced(tc, now, start, end)
	r.Epoch, r.SiteNow = 0, 0
	return r, err
}

func cacheBroker(t *testing.T, cfg BrokerConfig, conns ...Conn) *Broker {
	t.Helper()
	cfg.ProbeCache = true
	cfg.BreakerThreshold = -1
	return mustBrokerConns(t, cfg, conns...)
}

// TestCacheRepeatProbeHits pins the basic contract: an identical repeat
// probe is served from the cache without a round trip, while a different
// window or a clock-advancing now goes back to the site.
func TestCacheRepeatProbeHits(t *testing.T) {
	cc := &countingConn{Conn: LocalConn{Site: mustSite(t, "a", 4)}}
	br := cacheBroker(t, BrokerConfig{}, cc)
	w := period.Time(period.Hour)

	for i := 0; i < 5; i++ {
		if av := br.ProbeAll(0, 0, w); av[0].Err != nil || av[0].Available != 4 {
			t.Fatalf("probe %d: %+v", i, av[0])
		}
	}
	if got := cc.probeCount(); got != 1 {
		t.Fatalf("5 identical probes cost %d round trips, want 1", got)
	}
	if cs := br.CacheStats(); cs.Hits != 4 || cs.Misses != 1 {
		t.Fatalf("stats = %+v, want 4 hits / 1 miss", cs)
	}

	// A different window is a different entry: one more round trip.
	br.ProbeAll(0, 0, w.Add(period.Hour))
	if got := cc.probeCount(); got != 2 {
		t.Fatalf("distinct window cost %d round trips total, want 2", got)
	}

	// Advancing now past the cached siteNow may expire leases on the site, so
	// the probe must reach it even though the window is identical.
	br.ProbeAll(w, 0, w.Add(period.Hour))
	if got := cc.probeCount(); got != 3 {
		t.Fatalf("clock-advancing probe was served from cache (%d round trips)", got)
	}
}

// TestCacheInvalidatedBy2PC pins eager invalidation: the broker's own
// prepare/commit/abort traffic drops the site's entries, so the very next
// probe reflects the committed allocation instead of a stale hit.
func TestCacheInvalidatedBy2PC(t *testing.T) {
	site := mustSite(t, "a", 4)
	cc := &countingConn{Conn: LocalConn{Site: site}}
	br := cacheBroker(t, BrokerConfig{}, cc)
	w := period.Time(period.Hour)

	if av := br.ProbeAll(0, 0, w); av[0].Available != 4 {
		t.Fatalf("baseline = %+v", av[0])
	}
	if _, err := br.CoAllocate(0, Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 3}); err != nil {
		t.Fatal(err)
	}
	if av := br.ProbeAll(0, 0, w); av[0].Err != nil || av[0].Available != 1 {
		t.Fatalf("probe after commit = %+v, want 1 available (stale cache?)", av[0])
	}
	if cs := br.CacheStats(); cs.Invalidations == 0 {
		t.Fatalf("2PC round never invalidated: %+v", cs)
	}

	// Release frees the servers and invalidates again: the next probe sees
	// full capacity, not the post-commit entry.
	allocs := br.ProbeAll(0, 0, w) // warm the cache with the post-commit answer
	_ = allocs
	a, err := br.CoAllocate(0, Request{ID: 2, Start: period.Time(2 * period.Hour), Duration: period.Hour, Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := br.Release(0, a); err != nil {
		t.Fatal(err)
	}
	if av := br.ProbeAll(0, period.Time(2*period.Hour), period.Time(3*period.Hour)); av[0].Available != 4 {
		t.Fatalf("probe after release = %+v, want 4 available", av[0])
	}
}

// TestCacheEpochInvalidation pins the cross-broker path: a mutation this
// broker did not perform (another broker's 2PC against the same site) moves
// the site epoch, and the first fresh reply retires every cached entry.
func TestCacheEpochInvalidation(t *testing.T) {
	site := mustSite(t, "a", 4)
	br := cacheBroker(t, BrokerConfig{}, LocalConn{Site: site})
	w1s, w1e := period.Time(0), period.Time(period.Hour)
	w2s, w2e := period.Time(period.Hour), period.Time(2*period.Hour)

	br.ProbeAll(0, w1s, w1e)
	br.ProbeAll(0, w2s, w2e)
	if cs := br.CacheStats(); cs.Entries != 2 {
		t.Fatalf("entries = %d, want 2", cs.Entries)
	}

	// A second broker mutates the site behind this broker's back.
	other := mustBroker(t, BrokerConfig{}, site)
	if _, err := other.CoAllocate(0, Request{ID: 1, Start: w1s, Duration: period.Hour, Servers: 2}); err != nil {
		t.Fatal(err)
	}

	// The cached entries are stale but still served (the documented dominant-
	// writer staleness window) until a miss brings back a fresh epoch…
	av := br.ProbeAll(0, w1s, w1e)
	if av[0].Available != 4 {
		t.Fatalf("expected the documented stale hit, got %+v", av[0])
	}
	// …which any clock-advancing probe forces. Observing the new epoch drops
	// both entries, so even the other window re-probes.
	br.ProbeAll(1, w2s, w2e)
	cs := br.CacheStats()
	if cs.Stale != 2 {
		t.Fatalf("stale = %d, want 2 (both entries retired by the epoch move): %+v", cs.Stale, cs)
	}
	if av := br.ProbeAll(1, w1s, w1e); av[0].Available != 2 {
		t.Fatalf("probe after epoch invalidation = %+v, want 2 available", av[0])
	}
}

// TestCacheSingleFlightCoalescing pins the N→1 property: concurrent
// identical probes share one flight, so the site sees exactly one round
// trip and every caller gets the same answer.
func TestCacheSingleFlightCoalescing(t *testing.T) {
	cc := &countingConn{Conn: LocalConn{Site: mustSite(t, "a", 4)}}
	cc.gate = make(chan struct{})
	br := cacheBroker(t, BrokerConfig{}, cc)
	w := period.Time(period.Hour)

	const callers = 8
	results := make(chan Avail, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- br.ProbeAll(0, 0, w)[0]
		}()
	}
	// Wait until the leader is parked inside the site RPC and the rest have
	// piled onto its flight, then open the gate.
	for cc.probeCount() == 0 {
		runtime.Gosched()
	}
	for br.CacheStats().Coalesced < callers-1 {
		runtime.Gosched()
	}
	close(cc.gate)
	wg.Wait()
	close(results)

	for r := range results {
		if r.Err != nil || r.Available != 4 {
			t.Fatalf("coalesced caller got %+v", r)
		}
	}
	if got := cc.probeCount(); got != 1 {
		t.Fatalf("%d concurrent identical probes cost %d round trips, want 1", callers, got)
	}
	if cs := br.CacheStats(); cs.Coalesced != callers-1 {
		t.Fatalf("coalesced = %d, want %d: %+v", cs.Coalesced, callers-1, cs)
	}
}

// TestCacheEpochlessReplyNotCached pins the never-cache guard: replies with
// Epoch == 0 must never populate the cache — with no invalidation signal a
// cached answer could outlive the state it describes.
func TestCacheEpochlessReplyNotCached(t *testing.T) {
	sc := &stripEpochConn{Conn: LocalConn{Site: mustSite(t, "old", 4)}}
	cc := &countingConn{Conn: sc}
	br := cacheBroker(t, BrokerConfig{}, cc)
	w := period.Time(period.Hour)

	for i := 0; i < 3; i++ {
		if av := br.ProbeAll(0, 0, w); av[0].Err != nil || av[0].Available != 4 {
			t.Fatalf("probe %d of epoch-less site: %+v", i, av[0])
		}
	}
	if got := cc.probeCount(); got != 3 {
		t.Fatalf("epoch-less probes cost %d round trips, want 3 (never cached)", got)
	}
	cs := br.CacheStats()
	if cs.Hits != 0 || cs.Entries != 0 {
		t.Fatalf("epoch-less replies leaked into the cache: %+v", cs)
	}
}

// TestCacheEvictionBound pins the per-site capacity: with CacheEntries = 2,
// a third distinct window displaces one entry instead of growing the map.
func TestCacheEvictionBound(t *testing.T) {
	br := cacheBroker(t, BrokerConfig{CacheEntries: 2}, LocalConn{Site: mustSite(t, "a", 4)})
	h := int64(period.Hour)
	for i := int64(0); i < 3; i++ {
		br.ProbeAll(0, period.Time(i*h), period.Time((i+1)*h))
	}
	cs := br.CacheStats()
	if cs.Entries > 2 {
		t.Fatalf("cache grew to %d entries past the bound of 2", cs.Entries)
	}
	if cs.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1: %+v", cs.Evictions, cs)
	}
}

// TestCacheBucketCollisionIsMiss pins the keying safety property: two
// windows that share a (slot bucket, duration bucket) key still get exact
// answers — the colliding lookup is a miss, never the other window's value.
func TestCacheBucketCollisionIsMiss(t *testing.T) {
	site := mustSite(t, "a", 4)
	cc := &countingConn{Conn: LocalConn{Site: site}}
	// One giant bucket: every window collides onto one key.
	br := cacheBroker(t, BrokerConfig{CacheBucket: 24 * period.Hour}, cc)

	if _, err := site.Prepare(0, "h", 0, period.Time(period.Hour), 3, period.Hour); err != nil {
		t.Fatal(err)
	}
	if err := site.Commit(0, "h"); err != nil {
		t.Fatal(err)
	}
	// [0,1h) has 1 server free, [1h,2h) has 4 — same key, different answers.
	if av := br.ProbeAll(0, 0, period.Time(period.Hour)); av[0].Available != 1 {
		t.Fatalf("window 1 = %+v, want 1", av[0])
	}
	if av := br.ProbeAll(0, period.Time(period.Hour), period.Time(2*period.Hour)); av[0].Available != 4 {
		t.Fatalf("colliding window served the other window's answer: %+v", av[0])
	}
	if got := cc.probeCount(); got != 2 {
		t.Fatalf("round trips = %d, want 2 (collision is a miss, not a hit)", got)
	}
}
