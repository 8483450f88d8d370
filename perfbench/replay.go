package main

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/job"
	"coalloc/internal/period"
	"coalloc/internal/workload"
)

// The swf-replay trace: CTC-calibrated jobs with the paper's §5.2
// advance reservations and run times below the estimate, so each granted
// job is released early at Start+RunTime.
const (
	arFraction  = 0.3
	arMaxLead   = 3 * period.Hour
	minRunShare = 0.5
	// traceSeed fixes the job stream itself (arrivals, widths, estimates),
	// which plays the part of the production log a replay reads.
	traceSeed = 1
)

// ctcTrace returns the first n jobs of the calibrated CTC log, with the
// seed drawing which of them are advance reservations, their lead times,
// and every job's actual run time. Keeping the log fixed keeps the offered
// load the same for every seed, as replaying one recorded log does.
func ctcTrace(n int, seed int64) []job.Request {
	jobs := workload.CTC().Generate(n, traceSeed)
	jobs = workload.WithAdvanceReservations(jobs, arFraction, arMaxLead, seed)
	return workload.WithRunTimes(jobs, minRunShare, seed+1)
}

// event is one submission (job != nil) or one early release, keyed by
// simulated time.
type event struct {
	sim   period.Time
	seq   int
	job   *job.Request
	alloc grid.MultiAllocation
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	return q[i].sim < q[j].sim || q[i].sim == q[j].sim && q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// request is one harness call into a broker, with its wall-clock extent.
type request struct {
	broker int
	kind   string
	t0, t1 time.Time
}

// Request kinds.
const (
	reqCoalloc  = "coalloc"
	reqRelease  = "release"
	reqProbeAll = "probe_all"
	reqRangeAll = "range_all"
)

// client issues co-allocations and releases through one broker from a
// single goroutine, checks every answer against the ledger, and counts the
// outcomes.
type client struct {
	br     *grid.Broker
	id     int // broker index in the federation
	ledger *ledger

	coLat, relLat      hist
	reqs               []request // kept when keepReqs, for the traced run
	keepReqs           bool
	submitted, granted int
	failed, releases   int
	attempts           int
	wait               period.Duration
	errs               []string
}

func (c *client) note(kind string, t0, t1 time.Time) {
	if c.keepReqs {
		c.reqs = append(c.reqs, request{broker: c.id, kind: kind, t0: t0, t1: t1})
	}
}

func (c *client) fail(err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, err.Error())
	}
}

// coallocate submits one request; ok reports a grant.
func (c *client) coallocate(now period.Time, req grid.Request) (a grid.MultiAllocation, ok bool) {
	c.submitted++
	t0 := time.Now()
	a, err := c.br.CoAllocate(now, req)
	t1 := time.Now()
	c.coLat.add(t1.Sub(t0))
	c.note(reqCoalloc, t0, t1)
	switch {
	case errors.Is(err, grid.ErrNoCapacity):
		c.attempts += maxAttempts
		return a, false
	case err != nil:
		c.fail(fmt.Errorf("job %d: %w", req.ID, err))
		return a, false
	}
	c.granted++
	c.attempts += a.Attempts
	c.wait += period.Duration(a.Start - req.Start)
	c.ledger.grant(req, a)
	return a, true
}

// release gives a grant back at now.
func (c *client) release(now period.Time, a grid.MultiAllocation) {
	c.releases++
	t0 := time.Now()
	err := c.br.Release(now, a)
	t1 := time.Now()
	c.relLat.add(t1.Sub(t0))
	c.note(reqRelease, t0, t1)
	if err != nil {
		c.fail(fmt.Errorf("release %s: %w", a.HoldID, err))
		return
	}
	c.ledger.release(now, a)
}

// outcome adds the client's counts, errors and request extents to the pass.
func (c *client) outcome(p *pass) {
	p.submitted, p.granted, p.attempts, p.wait = c.submitted, c.granted, c.attempts, c.wait
	p.writes = c.submitted + c.releases
	p.failed += c.failed
	p.errs = append(p.errs, c.errs...)
	p.reqs = append(p.reqs, c.reqs...)
}

// replayer drives a log through one client in simulated-time order, so
// site clocks only move forward. Each event is issued as soon as the
// previous one returns: a closed loop over the log.
type replayer struct {
	client
	q       eventQueue
	seq     int
	until   period.Time // no submission after this instant
	lastSim period.Time
}

func newReplayer(c client, jobs []job.Request, until period.Time) *replayer {
	r := &replayer{client: c, until: until}
	for i := range jobs {
		if jobs[i].Submit > until {
			break
		}
		r.push(event{sim: jobs[i].Submit, job: &jobs[i]})
	}
	return r
}

func (r *replayer) push(e event) {
	r.seq++
	e.seq = r.seq
	heap.Push(&r.q, e)
}

// run replays events up to the until instant, stopping early at a
// non-zero deadline. It reports whether the log ran out first.
func (r *replayer) run(deadline time.Time) (exhausted bool) {
	for r.q.Len() > 0 {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return false
		}
		ev := heap.Pop(&r.q).(event)
		if ev.sim > r.until {
			return true
		}
		r.lastSim = ev.sim
		if ev.job == nil {
			r.release(ev.sim, ev.alloc)
			continue
		}
		j := ev.job
		a, ok := r.coallocate(ev.sim, grid.Request{ID: j.ID, Start: j.Start, Duration: j.Duration, Servers: j.Servers})
		if ok && j.RunTime > 0 && j.RunTime < j.Duration {
			r.push(event{sim: a.Start.Add(j.RunTime), alloc: a})
		}
	}
	return true
}

// maxAttempts is the broker's default Δt ladder length, charged to every
// request the ladder rejects.
const maxAttempts = 16

// prefillSites replays the trace into the sites in process, through a
// broker over local connections, and then moves every site clock to the
// last replayed instant so the state stays static for the readers. It
// returns the recorded site-call stream and that instant.
func prefillSites(sites []*grid.Site, l *ledger, jobs []job.Request, until period.Time) ([]call, period.Time, error) {
	log := &callLog{}
	conns := make([]grid.Conn, len(sites))
	for i, s := range sites {
		conns[i] = &timedConn{fullConn: grid.LocalConn{Site: s}, broker: -1, site: i, log: log}
	}
	br, err := grid.NewBroker(grid.BrokerConfig{Name: "prefill", Lease: lease}, conns...)
	if err != nil {
		return nil, 0, err
	}
	defer br.Close()
	r := newReplayer(client{br: br, id: -1, ledger: l}, jobs, until)
	r.run(time.Time{})
	if r.failed > 0 {
		return nil, 0, fmt.Errorf("prefill: %d failed operations: %v", r.failed, r.errs)
	}
	calls := log.snapshot()
	now := r.lastSim
	for i, s := range sites {
		s.Probe(now, now, now.Add(slotSize))
		calls = append(calls, call{broker: -1, site: i, op: opProbe, now: now, start: now, end: now.Add(slotSize)})
	}
	return calls, now, nil
}
