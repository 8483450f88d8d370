package main

import (
	"fmt"
	"sort"
	"time"

	"coalloc/internal/calendar"
	"coalloc/internal/period"
)

// attribution is the site-call time of one request, per operation.
type attribution struct {
	total, covered time.Duration
	byOp           map[string]time.Duration // wall time covered by each operation's calls
	calls          map[string]int
}

// attribute charges every recorded call to the request of the same broker
// whose wall-clock extent contains it, and returns the attributions of the
// requests of one kind. Each broker has one calling goroutine, so the
// containing request is unique; watch polls run in the background and are
// never charged.
func attribute(reqs []request, calls []call, kind string) []*attribution {
	byBroker := map[int][]int{} // broker -> request indexes sorted by start
	for i, r := range reqs {
		byBroker[r.broker] = append(byBroker[r.broker], i)
	}
	for _, idx := range byBroker {
		sort.Slice(idx, func(a, b int) bool { return reqs[idx[a]].t0.Before(reqs[idx[b]].t0) })
	}
	ivs := make([]map[string][]interval, len(reqs))
	for _, c := range calls {
		idx := byBroker[c.broker]
		if c.op == opWatch || len(idx) == 0 {
			continue
		}
		k := sort.Search(len(idx), func(k int) bool { return reqs[idx[k]].t0.After(c.t0) }) - 1
		if k < 0 || reqs[idx[k]].t1.Before(c.t1) {
			continue
		}
		i := idx[k]
		if ivs[i] == nil {
			ivs[i] = map[string][]interval{}
		}
		ivs[i][c.op] = append(ivs[i][c.op], interval{c.t0, c.t1})
	}
	var out []*attribution
	for i, r := range reqs {
		if r.kind != kind {
			continue
		}
		a := &attribution{total: r.t1.Sub(r.t0), calls: map[string]int{}, byOp: map[string]time.Duration{}}
		var all []interval
		for op, iv := range ivs[i] {
			a.calls[op] = len(iv)
			a.byOp[op] = covered(iv, r.t0, r.t1)
			all = append(all, iv...)
		}
		a.covered = covered(all, r.t0, r.t1)
		out = append(out, a)
	}
	return out
}

// medianBand returns the requests whose latency lies in the middle tenth:
// their components add up to their own latency, which is the median's.
func medianBand(as []*attribution) []*attribution {
	s := append([]*attribution(nil), as...)
	sort.Slice(s, func(i, j int) bool { return s[i].total < s[j].total })
	lo, hi := len(s)*45/100, len(s)*55/100+1
	return s[lo:min(hi, len(s))]
}

// perLayer derives the per-layer metrics from the untraced pass p and the
// traced pass tp, replaying tp's recorded site calls into fresh sites and
// into every calendar backend. It also returns the table rows and any
// check the replays failed.
func perLayer(p, tp *pass, replayDir string) (map[string]metric, []row, []string, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	us := func(d durations, q float64) float64 { return d.quantile(q, time.Microsecond) }
	var problems []string

	calls := tp.fed.calls.snapshot()
	byOp := map[string]durations{}
	committed := map[string]bool{}
	rpcs := 0
	for _, c := range calls {
		rpcs++
		byOp[c.op] = append(byOp[c.op], c.t1.Sub(c.t0))
		if c.op == opCommit && c.err == nil {
			committed[fmt.Sprint(c.site, c.hold)] = true
		}
	}
	prepares, useful := 0, 0
	for _, c := range calls {
		if c.op == opPrepare {
			prepares++
			if c.err == nil && committed[fmt.Sprint(c.site, c.hold)] {
				useful++
			}
		}
	}

	// Broker: request time split into site calls and the broker's own.
	mains := attribute(tp.reqs, calls, tp.mainKind)
	var self, site durations
	perOp := map[string]int{}
	for _, a := range mains {
		self = append(self, a.total-a.covered)
		site = append(site, a.covered)
		for op, n := range a.calls {
			perOp[op] += n
		}
	}
	total := 0
	for _, op := range siteOps {
		set("broker.rpcs_per_req."+op, ratio(float64(perOp[op]), float64(len(mains))), "count")
		total += perOp[op]
	}
	set("broker.rpcs_per_req", ratio(float64(total), float64(len(mains))), "count")
	set("broker.self_us_p50", us(self, 0.5), "us")
	set("broker.sitecalls_us_p50", us(site, 0.5), "us")
	set("broker.attempts_per_req", ratio(float64(p.attempts), float64(p.submitted)), "count")
	set("broker.prepare_useful_ratio", ratio(float64(useful), float64(prepares)), "ratio")
	set("broker.grant_ratio", ratio(float64(p.granted), float64(p.submitted)), "ratio")
	set("broker.wait_mean_min", ratio(period.Duration(p.wait).Minutes(), float64(p.granted)), "min")
	var hits, lookups, inval, stale, watch float64
	for _, b := range tp.fed.brokers {
		cs := b.CacheStats()
		hits += float64(cs.Hits)
		lookups += float64(cs.Hits + cs.Misses)
		inval += float64(cs.Invalidations)
		stale += float64(cs.Stale)
		watch += float64(cs.WatchEvents)
	}
	writes := float64(tp.writes)
	set("broker.cache.hit_ratio", ratio(hits, lookups), "ratio")
	set("broker.cache.invalidations_per_write", ratio(inval, writes), "count")
	set("broker.cache.stale_per_write", ratio(stale, writes), "count")
	set("broker.watch_events_per_write", ratio(watch, writes), "count")

	// Site: the same calls replayed in process, without the wire.
	siteTimes, diverged, err := replaySites(tp.fed.prefill, calls, replayDir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, d := range diverged {
		problems = append(problems, "site replay diverged: "+d)
	}
	for _, op := range siteOps {
		w, s := us(byOp[op], 0.5), us(siteTimes[op], 0.5)
		set("wire."+op+"_us_p50", w, "us")
		set("site."+op+"_us_p50", s, "us")
		net := 0.0
		if len(byOp[op]) > 0 && len(siteTimes[op]) > 0 {
			net = w - s
		}
		set("wire."+op+"_net_us_p50", net, "us")
	}
	set("wire.bytes_per_rpc", ratio(float64(tp.fed.wireBytes.Load()), float64(rpcs)), "B")

	// WAL: every group commit of the live traced pass.
	var flushes durations
	records, walBytes := 0, 0
	for _, w := range tp.fed.walT {
		flushes = append(flushes, w.flushes...)
		records += w.records
		walBytes += w.bytes
	}
	set("wal.append_us_p50", us(flushes, 0.5), "us")
	set("wal.append_us_p99", us(flushes, 0.99), "us")
	set("wal.records_per_batch", ratio(float64(records), float64(len(flushes))), "count")
	set("wal.bytes_per_req", ratio(float64(walBytes), writes), "B")

	// Calendar: the same stream on every registered backend.
	for _, name := range calendar.Backends() {
		ct, err := replayCalendar(name, tp.fed.prefill, calls, tp.fed.sites)
		if err != nil {
			problems = append(problems, err.Error())
			ct = &calTimes{}
		}
		prefix := "calendar." + name + "."
		set(prefix+"find_us_p50", us(ct.find, 0.5), "us")
		set(prefix+"allocate_us_p50", us(ct.allocate, 0.5), "us")
		set(prefix+"release_us_p50", us(ct.release, 0.5), "us")
		set(prefix+"view_available_us_p50", us(ct.view, 0.5), "us")
		set(prefix+"alloc_kb_per_write", ratio(float64(ct.writeBytes)/1024, float64(ct.writes)), "KB")
	}
	// What a prepare costs the site beyond its log append and its calendar
	// search and allocation: admission queue, lock and bookkeeping. A
	// difference of medians, so it is clamped at zero when that residue is
	// within noise.
	queue := 0.0
	if len(siteTimes[opPrepare]) > 0 {
		cal := "calendar." + calendar.DefaultBackend + "."
		queue = max(0, m["site.prepare_us_p50"].Value-m["wal.append_us_p50"].Value-
			m[cal+"find_us_p50"].Value-m[cal+"allocate_us_p50"].Value)
	}
	set("site.queue_us_p50", queue, "us")

	// Whole-run figures.
	tracedP50 := tp.mainLat.quantile(0.5, time.Microsecond)
	set("gen.failed_ratio", ratio(float64(p.failed), float64(p.attempted)), "ratio")
	// Client-side tails of the untraced pass; too noisy on a shared host to
	// carry an end-to-end bound.
	set("client.main_p90_ms", p.mainLat.quantile(0.90, time.Millisecond), "ms")
	set("client.main_p99_ms", p.mainLat.quantile(0.99, time.Millisecond), "ms")
	set("client.side_p90_ms", p.sideLat.quantile(0.90, time.Millisecond), "ms")
	set("client.side_p99_ms", p.sideLat.quantile(0.99, time.Millisecond), "ms")
	// The median band's latency split into additive rows.
	band := medianBand(mains)
	mean := func(f func(a *attribution) time.Duration) float64 {
		var sum time.Duration
		for _, a := range band {
			sum += f(a)
		}
		return ratio(float64(sum)/float64(time.Microsecond), float64(len(band)))
	}
	accounted := 0.0
	addBand := func(name string, f func(a *attribution) time.Duration) {
		v := mean(f)
		set("layers.p50_band."+name+"_us", v, "us")
		accounted += v
	}
	addBand("broker_self", func(a *attribution) time.Duration { return a.total - a.covered })
	for _, op := range siteOps {
		addBand(op, func(a *attribution) time.Duration { return a.byOp[op] })
	}
	// Calls of different operations that overlap in time were counted once
	// per operation above; this (negative) row takes the excess back out.
	addBand("sitecalls_overlap", func(a *attribution) time.Duration {
		overlap := a.covered
		for _, d := range a.byOp {
			overlap -= d
		}
		return overlap
	})
	set("layers.accounted_ratio", ratio(accounted, tracedP50), "ratio")
	set("runtime.heap_peak_mb", p.heapPeakMB, "MB")
	set("runtime.alloc_kb_per_req", ratio(float64(p.allocBytes)/1024, float64(p.mainOps)), "KB")
	set("trace.overhead_ratio", ratio(tracedP50, p.mainLat.quantile(0.5, time.Microsecond)), "ratio")

	rows := make([]row, 0, len(m))
	for name, v := range m {
		rows = append(rows, row{name, v})
	}
	rows = append(rows, row{"end_to_end.main_p50_us(traced)", metric{tracedP50, "us"}})
	return m, rows, problems, nil
}
