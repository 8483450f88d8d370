package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"coalloc/internal/calendar"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/wal"
)

// byStart orders calls by when the caller issued them; per site that is
// the order the site served them in, because every broker has a single
// calling goroutine.
func byStart(calls []call) []call {
	out := append([]call(nil), calls...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].t0.Before(out[j].t0) })
	return out
}

// applyCall issues one recorded call against a connection.
func applyCall(c fullConn, rc call, seq int) ([]int, error) {
	var tc obs.SpanContext
	if rc.traced {
		tc = obs.SpanContext{TraceID: uint64(seq) + 1, SpanID: 1}
	}
	switch rc.op {
	case opProbe:
		_, err := c.ProbeTraced(tc, rc.now, rc.start, rc.end)
		return nil, err
	case opProbeBatch:
		_, err := c.ProbeBatch(rc.now, rc.windows)
		return nil, err
	case opRange:
		_, err := c.RangeView(rc.now, rc.start, rc.end)
		return nil, err
	case opPrepare:
		return c.PrepareConflict(tc, rc.now, rc.hold, rc.start, rc.end, rc.servers, rc.lease, 0)
	case opCommit:
		return nil, c.CommitTraced(tc, rc.now, rc.hold)
	case opAbort:
		return nil, c.AbortTraced(tc, rc.now, rc.hold)
	}
	return nil, nil
}

// replaySites replays the recorded stream into fresh in-process sites with
// their own write-ahead logs, timing each call through a wrapped LocalConn:
// the site's own cost with no wire in front of it. Prefill calls rebuild
// the starting state untimed. It returns the per-operation durations and
// any call whose outcome differs from the recorded one.
func replaySites(prefill, measured []call, walDir string) (map[string]durations, []string, error) {
	sites, err := newSites()
	if err != nil {
		return nil, nil, err
	}
	for seq, rc := range prefill {
		if _, err := applyCall(grid.LocalConn{Site: sites[rc.site]}, rc, seq); err != nil && rc.err == nil {
			return nil, nil, fmt.Errorf("site replay of prefill %s: %w", rc.op, err)
		}
	}
	var logs []*wal.Log
	defer func() {
		for _, l := range logs {
			l.Close()
		}
	}()
	for _, s := range sites {
		l, _, err := wal.Open(filepath.Join(walDir, "replay-"+s.Name()), walOptions)
		if err != nil {
			return nil, nil, err
		}
		logs = append(logs, l)
		s.AttachWAL(l)
	}
	times := map[string]durations{}
	var diverged []string
	for seq, rc := range byStart(measured) {
		if rc.op == opWatch {
			continue
		}
		c := grid.LocalConn{Site: sites[rc.site]}
		t0 := time.Now()
		got, err := applyCall(c, rc, seq)
		times[rc.op] = append(times[rc.op], time.Since(t0))
		if (err == nil) != (rc.err == nil) || rc.op == opPrepare && fmt.Sprint(got) != fmt.Sprint(rc.granted) {
			if len(diverged) < 5 {
				diverged = append(diverged, fmt.Sprintf("%s %s at %s: replay %v/%v, recorded %v/%v",
					rc.op, rc.hold, siteName(rc.site), got, err, rc.granted, rc.err))
			}
		}
	}
	return times, diverged, nil
}

// calTimes is one backend's cost on the replayed stream.
type calTimes struct {
	find, allocate, release, view durations
	writeBytes                    uint64 // heap bytes allocated by timed writes
	writes                        int
}

// calHold is a prepared or committed share as the calendar mirror sees it.
type calHold struct {
	servers    []int
	start, end period.Time
	expires    period.Time
	committed  bool
}

// calMirror applies a site's recorded calls to a bare availability backend
// the way the site's scheduler does: advance the clock, search, allocate or
// release the recorded servers, and publish a view after every write.
type calMirror struct {
	cal   calendar.AvailabilityBackend
	view  calendar.View
	holds map[string]*calHold
}

func (m *calMirror) publish() { m.view = m.cal.PublishView() }

// releaseHold frees a hold's servers from at on (at <= start cancels it).
func (m *calMirror) releaseHold(h *calHold, at period.Time) error {
	for _, srv := range h.servers {
		if err := m.cal.Release(srv, h.start, h.end, at); err != nil {
			return err
		}
	}
	return nil
}

// advance mirrors the site's clock step: rotate the calendar, lapse
// undecided holds whose lease passed and forget committed holds that ended.
func (m *calMirror) advance(now period.Time) error {
	moved := now > m.cal.Now()
	if moved {
		m.cal.Advance(now)
	}
	for id, h := range m.holds {
		switch {
		case !h.committed && h.expires <= now:
			if err := m.releaseHold(h, h.start); err != nil {
				return err
			}
			delete(m.holds, id)
			moved = true
		case h.committed && h.end <= now:
			delete(m.holds, id)
		}
	}
	if moved {
		m.publish()
	}
	return nil
}

// apply mirrors one call, adding its timings to t.
func (m *calMirror) apply(rc call, t *calTimes) error {
	if err := m.advance(rc.now); err != nil {
		return err
	}
	timed := func(d *durations, write bool, f func() error) error {
		a0 := heapAllocBytes()
		t0 := time.Now()
		err := f()
		*d = append(*d, time.Since(t0))
		if write {
			t.writeBytes += heapAllocBytes() - a0
			t.writes++
		}
		return err
	}
	switch rc.op {
	case opProbe:
		return timed(&t.view, false, func() error { m.view.Available(rc.start, rc.end); return nil })
	case opProbeBatch:
		for _, w := range rc.windows {
			timed(&t.view, false, func() error { m.view.Available(w.Start, w.End); return nil })
		}
	case opPrepare:
		// The scheduler searches only a window that can still be granted.
		if rc.servers <= m.cal.Servers() && rc.start >= m.cal.Now() && rc.end <= m.cal.HorizonEnd() {
			timed(&t.find, false, func() error { m.cal.FindFeasible(rc.start, rc.end, rc.servers); return nil })
		}
		if rc.err != nil {
			m.publish()
			return nil
		}
		h := &calHold{servers: rc.granted, start: rc.start, end: rc.end, expires: rc.now.Add(rc.lease)}
		m.holds[rc.hold] = h
		return timed(&t.allocate, true, func() error {
			for _, srv := range h.servers {
				p, ok := m.cal.PeriodCovering(srv, h.start, h.end)
				if !ok {
					return fmt.Errorf("server %d not idle over [%d,%d)", srv, h.start, h.end)
				}
				if err := m.cal.Allocate(p, h.start, h.end); err != nil {
					return err
				}
			}
			m.publish()
			return nil
		})
	case opCommit:
		if h := m.holds[rc.hold]; h != nil && rc.err == nil {
			h.committed = true
		}
		m.publish()
	case opAbort:
		h := m.holds[rc.hold]
		at := rc.now
		switch {
		case h == nil || h.committed && rc.now >= h.end:
			m.publish()
			return nil
		case !h.committed:
			at = h.start
		}
		delete(m.holds, rc.hold)
		return timed(&t.release, true, func() error {
			if err := m.releaseHold(h, at); err != nil {
				return err
			}
			m.publish()
			return nil
		})
	}
	return nil
}

// replayCalendar mirrors every site's recorded stream onto a fresh backend
// of the named kind, timing the measured part, then checks the backend's
// own consistency and that it answers like the live site.
func replayCalendar(backend string, prefill, measured []call, live []*grid.Site) (*calTimes, error) {
	t := &calTimes{}
	measured = byStart(measured)
	for i, s := range live {
		cal, err := calendar.NewBackend(backend, calendar.Config{Servers: s.Servers(), SlotSize: slotSize, Slots: slots}, 0)
		if err != nil {
			return nil, err
		}
		m := &calMirror{cal: cal, holds: map[string]*calHold{}}
		m.publish()
		untimed := &calTimes{}
		for _, rc := range prefill {
			if rc.site == i {
				if err := m.apply(rc, untimed); err != nil {
					return nil, fmt.Errorf("%s prefill at %s: %w", backend, s.Name(), err)
				}
			}
		}
		for _, rc := range measured {
			if rc.site == i && rc.op != opWatch {
				if err := m.apply(rc, t); err != nil {
					return nil, fmt.Errorf("%s replay at %s: %w", backend, s.Name(), err)
				}
			}
		}
		if err := cal.CheckConsistency(); err != nil {
			return nil, fmt.Errorf("%s after replay at %s: %w", backend, s.Name(), err)
		}
		base := (cal.Now()/period.Time(slotSize) + 1) * period.Time(slotSize)
		for k := 0; k < 24; k++ {
			start := base.Add(period.Duration(k) * 2 * period.Hour)
			end := start.Add(3 * period.Hour)
			if end > cal.HorizonEnd() {
				break
			}
			// now = 0 keeps the live probe on the site's lock-free read path.
			if got, want := m.view.Available(start, end), s.Probe(0, start, end); got != want {
				return nil, fmt.Errorf("%s replay at %s answers %d for [%d,%d), live site %d", backend, s.Name(), got, start, end, want)
			}
		}
	}
	return t, nil
}
