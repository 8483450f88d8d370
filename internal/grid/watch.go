package grid

// Push-based cache invalidation. The PR 5 availability cache learned of
// site epoch bumps only passively, per reply: a broker serving hot cached
// answers could go stale for an unbounded interval until its next RPC.
// The watch subscription closes that window: one long-poll loop per site
// connection in which the site parks the call until a mutation publishes a
// new view, then answers immediately with the new (epoch, salt, siteNow) —
// the k8s/arktos watch idiom adapted to net/rpc, which cannot stream. The
// broker folds each event into the cache through observeEvent, so entries
// retire one event-delivery latency after the mutation instead of at the
// next miss.
//
// Gap semantics are deliberately conservative: any stream error — a
// severed transport, a breaker-tripped site, a failover re-target mid-poll
// — drops every cached entry for the site and bumps its invalidation
// generation before the loop re-subscribes, because mutations may have
// gone unheard while the stream was down. The first poll after
// re-subscribing passes after=0 and returns the current epoch immediately,
// re-baselining the stream.

import (
	"log/slog"
	"time"

	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// EpochEvent is one pushed epoch bump: the site's current epoch, the
// incarnation salt component of it, and the site clock at publish time.
type EpochEvent struct {
	Epoch   uint64
	Salt    uint64
	SiteNow period.Time
}

// Window is one candidate co-allocation window in a batched ladder probe.
type Window struct {
	Start, End period.Time
}

// retargetNotifier is the optional connection surface a broker uses to
// hear about failover re-targets; FailoverConn implements it.
type retargetNotifier interface {
	OnRetarget(func(target string))
}

// startWatchers spawns one watch loop per site connection. Called from
// NewBroker under cfg.CacheWatch.
func (b *Broker) startWatchers() {
	b.watchStop = make(chan struct{})
	for _, c := range b.sites {
		b.watchWG.Add(1)
		go b.runWatch(c)
	}
}

// runWatch is one site's subscription loop. It long-polls WatchEpoch,
// folds pushed events into the cache, and on any stream error drops the
// site's entries conservatively before re-subscribing with backoff.
func (b *Broker) runWatch(c Conn) {
	defer b.watchWG.Done()
	site := c.Name()
	var (
		last    EpochEvent
		broken  bool // stream currently known-broken (gap already recorded)
		backoff time.Duration
	)
	for {
		select {
		case <-b.watchStop:
			return
		default:
		}
		ev, changed, err := c.WatchEpoch(last.Epoch, b.cfg.WatchPoll)
		if err != nil {
			if !broken {
				broken = true
				b.watchGap(site, err)
			}
			// Re-subscribe with bounded backoff, abandoning promptly on Close.
			if backoff < 50*time.Millisecond {
				backoff = 50 * time.Millisecond
			} else if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			t := time.NewTimer(b.jitter(backoff))
			select {
			case <-b.watchStop:
				t.Stop()
				return
			case <-t.C:
			}
			continue
		}
		broken = false
		backoff = 0
		if !changed {
			continue // idle poll expiry: the stream is alive, nothing moved
		}
		last = ev
		if dropped := b.cache.observeEvent(site, ev.Epoch, ev.Salt); dropped > 0 {
			b.event(obs.EventCacheInvalidate,
				slog.String("site", site),
				slog.String("cause", "watch"),
				slog.Int("entries", dropped))
		}
	}
}

// watchGap records one stream gap: conservative site-wide drop, generation
// bump, and the trace event operators grep for.
func (b *Broker) watchGap(site string, cause error) {
	b.cache.gap(site)
	b.event(obs.EventCacheInvalidate,
		slog.String("site", site),
		slog.String("cause", "watch_gap"),
		slog.String("err", cause.Error()))
}

// maxPrefetchWindows bounds one batched ladder probe; the server enforces
// its own (larger) bound, see wire.
const maxPrefetchWindows = 64

// prefetchLadder fetches the whole Δt retry ladder's candidate windows in
// one batched RPC per site, storing every answer in the availability cache
// so the ladder's per-window probe rounds hit locally: the per-request
// round-trip count drops from O(ladder × sites) toward O(sites). The
// per-window path owns all breaker accounting — a failed prefetch is never
// worse than no prefetch.
func (b *Broker) prefetchLadder(_ *obs.ActiveSpan, now, start period.Time, dur period.Duration) {
	pc := b.cache
	attempts := b.cfg.MaxAttempts
	if attempts > maxPrefetchWindows {
		attempts = maxPrefetchWindows
	}
	b.fanOut(func(i int) {
		c := b.sites[i]
		if b.breakerOpenFor(c) != nil {
			return
		}
		site := c.Name()
		wins := make([]Window, 0, attempts)
		for a, s := 0, start; a < attempts; a, s = a+1, s.Add(b.cfg.DeltaT) {
			if !pc.peek(site, kindProbe, now, s, s.Add(dur)) {
				wins = append(wins, Window{Start: s, End: s.Add(dur)})
			}
		}
		if len(wins) < 2 {
			return // nothing to amortize: a lone window costs one RPC either way
		}
		gen := pc.genOf(site)
		results, err := c.ProbeBatch(now, wins)
		if err != nil {
			return
		}
		pc.batchProbes.Add(1)
		if b.m != nil {
			b.m.cacheBatchProbes.Inc()
		}
		if len(results) != len(wins) {
			return
		}
		for j, r := range results {
			if dropped := pc.observe(site, r.Epoch); dropped > 0 {
				b.event(obs.EventCacheInvalidate,
					slog.String("site", site),
					slog.String("cause", "epoch"),
					slog.Int("entries", dropped))
			}
			pc.store(site, kindProbe, wins[j].Start, wins[j].End, r.Epoch, r.SiteNow, r, nil, gen)
		}
	})
}
