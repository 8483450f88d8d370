package grid

// Tests for the push-based cache invalidation added in PR 8: the watch
// event fold (observeEvent), the three cache-coherence fixes that shipped
// with it (store-after-invalidate generations, reordered-reply epoch
// regression, failover re-target drops), the broker watch loop end to end,
// and the batched ladder prefetch. The coherence tests are regression
// tests: each encodes a sequence that cached a stale answer before its fix.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// Two fabricated incarnations for direct probeCache tests: epochs are
// salt + small counter, matching how sites mint them.
const (
	saltA = uint64(1) << 30
	saltB = uint64(3) << 40
)

// storeProbe adopts epoch for the site and caches one probe entry under it,
// valid through siteNow — the setup step most coherence tests start from.
func storeProbe(pc *probeCache, site string, epoch uint64, start, end period.Time, avail int) {
	pc.observe(site, epoch)
	pc.store(site, kindProbe, start, end, epoch, period.Time(24*period.Hour),
		ProbeResult{Available: avail, Epoch: epoch}, nil, pc.genOf(site))
}

func cachedAvail(t *testing.T, pc *probeCache, site string, start, end period.Time) (int, bool) {
	t.Helper()
	e, ok := pc.lookup(site, kindProbe, 0, start, end)
	if !ok {
		return 0, false
	}
	return e.probe.Available, true
}

// TestObserveEventTable drives the watch-event fold through every delivery
// anomaly the stream can produce: in-order bumps, duplicates, out-of-order
// and superseded events, stale replies racing a live stream, incarnation
// changes, and gaps.
func TestObserveEventTable(t *testing.T) {
	w := period.Time(period.Hour)
	e1, e2, e3 := saltA+1, saltA+2, saltA+3
	f1 := saltB + 1 // a different incarnation's first epoch, numerically huge
	cases := []struct {
		name string
		// run returns the expected final epoch for site "a".
		run            func(t *testing.T, pc *probeCache) uint64
		wantCached     bool // the entry stored under e1 survives
		wantReordered  uint64
		wantGaps       uint64
		wantEventCount uint64
	}{
		{
			name: "in-order event adopts and drops",
			run: func(t *testing.T, pc *probeCache) uint64 {
				if d := pc.observeEvent("a", e2, saltA); d != 1 {
					t.Fatalf("in-order event dropped %d entries, want 1", d)
				}
				return e2
			},
			wantCached:     false,
			wantEventCount: 2,
		},
		{
			name: "duplicate event is a no-op",
			run: func(t *testing.T, pc *probeCache) uint64 {
				if d := pc.observeEvent("a", e1, saltA); d != 0 {
					t.Fatalf("duplicate event dropped %d entries", d)
				}
				return e1
			},
			wantCached:     true,
			wantEventCount: 2,
		},
		{
			name: "out-of-order event does not regress the epoch",
			run: func(t *testing.T, pc *probeCache) uint64 {
				pc.observeEvent("a", e3, saltA)
				if d := pc.observeEvent("a", e2, saltA); d != 0 {
					t.Fatalf("stale event dropped %d entries", d)
				}
				return e3
			},
			wantCached:     false, // e3 dropped it; e2 must not resurrect anything
			wantEventCount: 3,
		},
		{
			name: "stale reply refused while the stream is live",
			run: func(t *testing.T, pc *probeCache) uint64 {
				pc.observeEvent("a", e2, saltA)
				// A delayed per-probe reply from the superseded epoch: the salt
				// is known, so numeric ordering refuses it even though e1 may
				// have rotated out of the superseded ring.
				if d := pc.observe("a", e1); d != 0 {
					t.Fatalf("delayed reply dropped %d entries", d)
				}
				return e2
			},
			wantCached:     false,
			wantReordered:  1,
			wantEventCount: 2,
		},
		{
			name: "foreign-incarnation reply refused while the stream is live",
			run: func(t *testing.T, pc *probeCache) uint64 {
				// The watch says incarnation A is current; a straggler reply
				// from incarnation B (a deposed primary) must not be adopted
				// even though its epoch is numerically larger.
				if d := pc.observe("a", f1); d != 0 {
					t.Fatalf("foreign reply dropped %d entries", d)
				}
				return e1
			},
			wantCached:     true,
			wantReordered:  1,
			wantEventCount: 1,
		},
		{
			name: "salt change adopts a numerically lower epoch",
			run: func(t *testing.T, pc *probeCache) uint64 {
				// Failover: the promoted incarnation's epochs share nothing
				// with the old ones. The event's salt is the authority.
				lower := saltA - 1000 // below every incarnation-A epoch
				if d := pc.observeEvent("a", lower, saltB); d != 1 {
					t.Fatalf("incarnation change dropped %d entries, want 1", d)
				}
				return lower
			},
			wantCached:     false,
			wantEventCount: 2,
		},
		{
			name: "gap drops entries and restores reply-driven adoption",
			run: func(t *testing.T, pc *probeCache) uint64 {
				gen := pc.genOf("a")
				pc.gap("a")
				if pc.genOf("a") == gen {
					t.Fatal("gap did not bump the invalidation generation")
				}
				// With the salt forgotten, a foreign-incarnation reply is
				// adopted again — the stream is no longer authoritative.
				pc.observe("a", f1)
				return f1
			},
			wantCached:     false,
			wantGaps:       1,
			wantEventCount: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pc := newProbeCache(15*period.Minute, 64, nil)
			if d := pc.observeEvent("a", e1, saltA); d != 0 {
				t.Fatalf("baseline event dropped %d entries", d)
			}
			pc.store("a", kindProbe, 0, w, e1, period.Time(24*period.Hour),
				ProbeResult{Available: 4, Epoch: e1}, nil, pc.genOf("a"))
			wantEpoch := tc.run(t, pc)
			pc.mu.Lock()
			gotEpoch := pc.sites["a"].epoch
			pc.mu.Unlock()
			if gotEpoch != wantEpoch {
				t.Fatalf("final epoch = %#x, want %#x", gotEpoch, wantEpoch)
			}
			if _, ok := cachedAvail(t, pc, "a", 0, w); ok != tc.wantCached {
				t.Fatalf("entry cached = %v, want %v", ok, tc.wantCached)
			}
			if got := pc.reordered.Load(); got != tc.wantReordered {
				t.Fatalf("reordered = %d, want %d", got, tc.wantReordered)
			}
			if got := pc.watchGaps.Load(); got != tc.wantGaps {
				t.Fatalf("watch gaps = %d, want %d", got, tc.wantGaps)
			}
			if got := pc.watchEvents.Load(); got != tc.wantEventCount {
				t.Fatalf("watch events = %d, want %d", got, tc.wantEventCount)
			}
		})
	}
}

// TestCacheStoreAfterInvalidateRace is the regression test for the
// store-after-invalidate race: a flight's reply, computed before a blind
// invalidation (own 2PC, watch gap, failover re-target) landed, must not be
// stored afterwards — same epoch or not. Before the generation check, the
// sequence below cached the pre-mutation answer.
func TestCacheStoreAfterInvalidateRace(t *testing.T) {
	w := period.Time(period.Hour)
	e1 := saltA + 1
	pc := newProbeCache(15*period.Minute, 64, nil)

	// The flight joins (snapshotting the generation), its RPC computes a
	// reply, and while that reply is in flight an invalidation lands.
	key := flightKey{site: "a", kind: kindProbe, now: 0, start: 0, end: w}
	fl, leader := pc.join(key)
	if !leader {
		t.Fatal("first join was not the leader")
	}
	pc.observe("a", e1)
	pc.invalidate("a")

	// The reply arrives: same epoch (the mutation may not bump the epoch the
	// reply reports — it was computed before), but a stale generation.
	pc.store("a", kindProbe, 0, w, e1, period.Time(24*period.Hour),
		ProbeResult{Available: 4, Epoch: e1}, nil, fl.gen)
	pc.finish(key, fl)
	if _, ok := cachedAvail(t, pc, "a", 0, w); ok {
		t.Fatal("reply computed before the invalidation was cached after it")
	}

	// Control: the identical sequence without the racing invalidation stores
	// normally — the generation check only refuses genuinely raced replies.
	fl2, _ := pc.join(key)
	pc.store("a", kindProbe, 0, w, e1, period.Time(24*period.Hour),
		ProbeResult{Available: 4, Epoch: e1}, nil, fl2.gen)
	pc.finish(key, fl2)
	if av, ok := cachedAvail(t, pc, "a", 0, w); !ok || av != 4 {
		t.Fatalf("un-raced store refused (cached=%v avail=%d)", ok, av)
	}
}

// parkingConn wraps a Conn so one armed probe computes its reply eagerly
// and then parks before returning — the shape of an RPC whose reply is in
// flight while the broker mutates the site.
type parkingConn struct {
	Conn
	mu       sync.Mutex
	armed    bool
	computed chan struct{} // closed once the armed probe has its reply
	gate     chan struct{} // the parked probe returns when this closes
}

func (p *parkingConn) arm() {
	p.mu.Lock()
	p.armed = true
	p.computed = make(chan struct{})
	p.gate = make(chan struct{})
	p.mu.Unlock()
}

func (p *parkingConn) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error) {
	r, err := p.Conn.ProbeTraced(tc, now, start, end)
	p.mu.Lock()
	armed := p.armed
	p.armed = false
	computed, gate := p.computed, p.gate
	p.mu.Unlock()
	if armed {
		close(computed)
		<-gate
	}
	return r, err
}

// TestCacheStoreAfterInvalidateRaceEndToEnd replays the race through the
// real broker: a probe's reply is computed, the broker releases an
// allocation (2PC abort traffic → blind invalidation), and only then does
// the reply return and try to store. The next probe must reflect the
// release, not the parked reply.
func TestCacheStoreAfterInvalidateRaceEndToEnd(t *testing.T) {
	site := mustSite(t, "a", 4)
	pk := &parkingConn{Conn: LocalConn{Site: site}}
	br := cacheBroker(t, BrokerConfig{}, pk)
	w := period.Time(period.Hour)

	alloc, err := br.CoAllocate(0, Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 3})
	if err != nil {
		t.Fatal(err)
	}

	// Park a probe of the allocated window with its pre-release answer (1
	// server free) already computed.
	pk.arm()
	probed := make(chan Avail, 1)
	go func() { probed <- br.ProbeAll(0, 0, w)[0] }()
	<-pk.computed

	// The release lands while that reply is in flight; its aborts invalidate
	// the site's cache entries and bump the generation.
	if err := br.Release(0, alloc); err != nil {
		t.Fatal(err)
	}
	close(pk.gate)
	if a := <-probed; a.Err != nil || a.Available != 1 {
		t.Fatalf("parked probe = %+v, want the pre-release answer 1", a)
	}

	// The parked reply described the pre-release world; caching it would
	// hide the freed capacity until the next epoch move. The follow-up probe
	// must reach the site and see all 4 servers.
	if a := br.ProbeAll(0, 0, w)[0]; a.Err != nil || a.Available != 4 {
		t.Fatalf("probe after release = %+v, want 4 (stale parked reply cached?)", a)
	}
}

// TestCacheEpochRegressionReorderedReply is the regression test for epoch
// regression on reordered replies: a delayed reply from a superseded epoch
// must be dropped without being adopted. Before the superseded ring, the
// sequence below regressed sc.epoch and let follow-up stores cache answers
// computed under retired state.
func TestCacheEpochRegressionReorderedReply(t *testing.T) {
	w := period.Time(period.Hour)
	w2 := period.Time(2 * period.Hour)
	e1, e2 := saltA+1, saltA+2
	pc := newProbeCache(15*period.Minute, 64, nil)

	storeProbe(pc, "a", e1, 0, w, 4)
	if d := pc.observe("a", e2); d != 1 {
		t.Fatalf("newer epoch dropped %d entries, want 1", d)
	}
	pc.store("a", kindProbe, 0, w, e2, period.Time(24*period.Hour),
		ProbeResult{Available: 1, Epoch: e2}, nil, pc.genOf("a"))

	// The delayed e1 reply lands. It must not be adopted: the e2 entry
	// stays, and a store against e1 is refused.
	if d := pc.observe("a", e1); d != 0 {
		t.Fatalf("delayed reply from superseded epoch dropped %d entries", d)
	}
	if av, ok := cachedAvail(t, pc, "a", 0, w); !ok || av != 1 {
		t.Fatalf("current-epoch entry lost to a reordered reply (cached=%v avail=%d)", ok, av)
	}
	pc.store("a", kindProbe, w, w2, e1, period.Time(24*period.Hour),
		ProbeResult{Available: 4, Epoch: e1}, nil, pc.genOf("a"))
	if _, ok := cachedAvail(t, pc, "a", w, w2); ok {
		t.Fatal("store under a superseded epoch was accepted")
	}
	if got := pc.reordered.Load(); got != 1 {
		t.Fatalf("reordered = %d, want 1", got)
	}
}

// TestFailoverRetargetDropsCache is the regression test for failover cache
// coherence: every entry computed against the deposed primary is void the
// moment the connection re-targets, even though no reply with a new epoch
// has arrived yet. Before the OnRetarget hook, the probe below answered
// from the deposed primary's cached state.
func TestFailoverRetargetDropsCache(t *testing.T) {
	primary := mustSite(t, "prim", 4)
	standby := mustSite(t, "standby", 2)
	fc := NewFailoverConn(LocalConn{Site: primary}, FailoverTarget{Conn: LocalConn{Site: standby}})
	br := cacheBroker(t, BrokerConfig{}, fc)
	w := period.Time(period.Hour)

	if a := br.ProbeAll(0, 0, w)[0]; a.Err != nil || a.Available != 4 {
		t.Fatalf("primary probe = %+v", a)
	}
	if cs := br.CacheStats(); cs.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", cs.Entries)
	}

	// An operator-style manual failover: no broker traffic, no fresh reply,
	// just the re-target. The cache must be dropped at re-target time.
	if _, err := fc.Failover("manual"); err != nil {
		t.Fatal(err)
	}
	if a := br.ProbeAll(0, 0, w)[0]; a.Err != nil || a.Available != 2 {
		t.Fatalf("probe after re-target = %+v, want the standby's 2 (stale primary entry?)", a)
	}
	if cs := br.CacheStats(); cs.Invalidations == 0 {
		t.Fatalf("re-target never invalidated: %+v", cs)
	}
}

// waitFor polls cond until it holds or the deadline passes — the bounded
// convergence wait the push-invalidation assertions are phrased in.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition %q not reached within %v", what, d)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchPushInvalidation is the tentpole's end-to-end contract: broker A
// caches an answer, broker B (a different broker — A hears nothing through
// its own 2PC path) mutates the site, and A's entry is retired by the
// pushed epoch event within an event-delivery latency, with no invalidation
// of A's own.
func TestWatchPushInvalidation(t *testing.T) {
	site := mustSite(t, "a", 4)
	a := cacheBroker(t, BrokerConfig{CacheWatch: true, WatchPoll: 50 * time.Millisecond}, LocalConn{Site: site})
	defer a.Close()
	b := cacheBroker(t, BrokerConfig{}, LocalConn{Site: site})
	w := period.Time(period.Hour)

	if av := a.ProbeAll(0, 0, w)[0]; av.Err != nil || av.Available != 4 {
		t.Fatalf("baseline probe = %+v", av)
	}
	waitFor(t, 5*time.Second, "watch stream established", func() bool {
		return a.CacheStats().WatchEvents >= 1
	})
	if cs := a.CacheStats(); cs.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", cs.Entries)
	}

	if _, err := b.CoAllocate(0, Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 3}); err != nil {
		t.Fatal(err)
	}
	// The push must retire A's entry without any A-side traffic.
	waitFor(t, 5*time.Second, "pushed event retired the entry", func() bool {
		return a.CacheStats().Entries == 0
	})
	if av := a.ProbeAll(0, 0, w)[0]; av.Err != nil || av.Available != 1 {
		t.Fatalf("probe after push = %+v, want 1", av)
	}
	cs := a.CacheStats()
	if cs.Invalidations != 0 {
		t.Fatalf("entry was dropped by A's own traffic, not the push: %+v", cs)
	}
	if cs.Stale == 0 {
		t.Fatalf("pushed event retired nothing: %+v", cs)
	}
}

// flakyWatchConn fails the watch stream on demand while leaving the data
// path healthy — a severed watch transport, not a dead site.
type flakyWatchConn struct {
	Conn
	fail atomic.Bool
}

func (f *flakyWatchConn) WatchEpoch(after uint64, maxWait time.Duration) (EpochEvent, bool, error) {
	if f.fail.Load() {
		// Keep the failing loop from spinning the backoff path too hot.
		time.Sleep(time.Millisecond)
		return EpochEvent{}, false, errors.New("injected watch failure")
	}
	return f.Conn.WatchEpoch(after, maxWait)
}

// TestWatchGapDropsEntries pins the gap semantics: any stream error drops
// the site's entries conservatively (a mutation may have gone unheard), and
// the stream resumes delivering events after it heals.
func TestWatchGapDropsEntries(t *testing.T) {
	site := mustSite(t, "a", 4)
	fw := &flakyWatchConn{Conn: LocalConn{Site: site}}
	br := cacheBroker(t, BrokerConfig{CacheWatch: true, WatchPoll: 20 * time.Millisecond}, fw)
	defer br.Close()
	w := period.Time(period.Hour)

	waitFor(t, 5*time.Second, "watch stream established", func() bool {
		return br.CacheStats().WatchEvents >= 1
	})
	if av := br.ProbeAll(0, 0, w)[0]; av.Err != nil || av.Available != 4 {
		t.Fatalf("baseline probe = %+v", av)
	}

	fw.fail.Store(true)
	waitFor(t, 5*time.Second, "gap recorded and entries dropped", func() bool {
		cs := br.CacheStats()
		return cs.WatchGaps >= 1 && cs.Entries == 0
	})

	// Heal the stream, mutate the site out-of-band, and the events resume.
	before := br.CacheStats().WatchEvents
	fw.fail.Store(false)
	if _, err := site.Prepare(0, "h1", 0, w, 2, 600); err != nil {
		t.Fatal(err)
	}
	if err := site.Commit(0, "h1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "events resumed after the gap", func() bool {
		return br.CacheStats().WatchEvents > before
	})
	if av := br.ProbeAll(0, 0, w)[0]; av.Err != nil || av.Available != 2 {
		t.Fatalf("probe after heal = %+v, want 2", av)
	}
}

// batchCountConn counts unary probes and batched probes separately, so the
// prefetch test can assert the round-trip trade.
type batchCountConn struct {
	LocalConn
	probes  atomic.Int64
	batches atomic.Int64
}

func (c *batchCountConn) ProbeTraced(tc obs.SpanContext, now, start, end period.Time) (ProbeResult, error) {
	c.probes.Add(1)
	return c.LocalConn.ProbeTraced(tc, now, start, end)
}

func (c *batchCountConn) ProbeBatch(now period.Time, windows []Window) ([]ProbeResult, error) {
	c.batches.Add(1)
	return c.LocalConn.ProbeBatch(now, windows)
}

// TestBatchProbePrefetchCutsRoundTrips pins the batched ladder probe's
// point: a Δt ladder that walks several windows costs one batched RPC, not
// one unary probe per rung.
func TestBatchProbePrefetchCutsRoundTrips(t *testing.T) {
	site := mustSite(t, "a", 4)
	// Fill the first two ladder rungs so the request walks to the third.
	for i, id := range []string{"f1", "f2"} {
		s := period.Time(int64(i) * int64(period.Hour))
		if _, err := site.Prepare(0, id, s, s.Add(period.Hour), 4, 3600); err != nil {
			t.Fatal(err)
		}
		if err := site.Commit(0, id); err != nil {
			t.Fatal(err)
		}
	}
	bc := &batchCountConn{LocalConn: LocalConn{Site: site}}
	br := cacheBroker(t, BrokerConfig{
		BatchProbe:  true,
		DeltaT:      period.Hour,
		MaxAttempts: 4,
	}, bc)

	alloc, err := br.CoAllocate(0, Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := period.Time(2 * period.Hour); alloc.Start != want {
		t.Fatalf("granted start = %d, want %d", alloc.Start, want)
	}
	if got := bc.batches.Load(); got != 1 {
		t.Fatalf("batched RPCs = %d, want 1", got)
	}
	if got := bc.probes.Load(); got != 0 {
		t.Fatalf("unary probes = %d, want 0 (the batch should have fed every rung)", got)
	}
	cs := br.CacheStats()
	if cs.BatchProbes != 1 || cs.Hits < 3 {
		t.Fatalf("cache stats after batched ladder = %+v", cs)
	}
}
