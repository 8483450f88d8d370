package wire

// The epoch watch and the batched ladder probe, added together in one wire
// pass. net/rpc cannot stream, so the watch is a bounded long-poll in the
// k8s watch idiom: the client sends the last epoch it saw, the server
// parks the call on Site.WaitEpoch until a mutation publishes a new view
// (answering immediately with the new epoch, its incarnation salt, and the
// site clock) or the wait bound expires (answering "unchanged"). The
// client polls on a dedicated connection — a call parked for seconds on
// the main transport would be severed by CallTimeout and take every
// multiplexed call down with it — and each poll is itself that
// connection's liveness traffic, so a server-side IdleTimeout larger than
// the poll bound never reclaims a healthy watch.

import (
	"fmt"
	"net/rpc"
	"os"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// Watch long-poll bounds. The server clamps the client's requested wait so
// a parked handler can never outlive a shutdown grace period by much;
// clients re-poll immediately on an "unchanged" answer, so the clamp only
// bounds idle round-trip frequency, never event latency.
const (
	defaultWatchWait = 10 * time.Second
	maxWatchWait     = 25 * time.Second
)

// maxBatchWindows bounds one ProbeBatch request server-side; a Δt ladder
// is 16 windows by default, so the bound only stops abuse.
const maxBatchWindows = 256

// WatchArgs asks the site to report its next epoch change. AfterEpoch is
// the last epoch the caller saw (zero on the first poll, which returns the
// current epoch immediately — published epochs are never zero). The wait
// is carried in milliseconds rather than time.Duration to keep the wire
// schema free of Go-typed fields.
type WatchArgs struct {
	AfterEpoch    uint64
	MaxWaitMillis int64
}

// WatchReply is one watch answer. Changed reports whether Epoch differs
// from the request's AfterEpoch; when false the poll simply expired and
// the caller should re-poll with the same AfterEpoch.
type WatchReply struct {
	Epoch   uint64
	Salt    uint64
	SiteNow period.Time
	Changed bool
}

// BatchWindow is one candidate window in a batched ladder probe.
type BatchWindow struct {
	Start, End period.Time
}

// BatchProbeArgs probes every window of a Δt retry ladder in one request.
type BatchProbeArgs struct {
	Now     period.Time
	Windows []BatchWindow
}

// WindowProbe is one window's answer, tagged with the epoch and site clock
// it was computed under exactly as a per-window ProbeReply would be.
type WindowProbe struct {
	Available int
	Epoch     uint64
	SiteNow   period.Time
}

// BatchProbeReply carries the per-window answers plus the site's capacity
// once (it cannot differ between windows).
type BatchProbeReply struct {
	Capacity int
	Results  []WindowProbe
}

// Watch implements the RPC long-poll.
func (s *Service) Watch(args WatchArgs, reply *WatchReply) error {
	return s.m.observe("Watch", func() error {
		wait := time.Duration(args.MaxWaitMillis) * time.Millisecond
		if wait <= 0 {
			wait = defaultWatchWait
		}
		if wait > maxWatchWait {
			wait = maxWatchWait
		}
		epoch, salt, siteNow, changed := s.site.WaitEpoch(args.AfterEpoch, wait)
		reply.Epoch = epoch
		reply.Salt = salt
		reply.SiteNow = siteNow
		reply.Changed = changed
		return nil
	})
}

// ProbeBatch implements the batched ladder probe. Batched probes carry no
// trace context, so the site records nothing for them.
func (s *Service) ProbeBatch(args BatchProbeArgs, reply *BatchProbeReply) error {
	return s.m.observe("ProbeBatch", func() error {
		if len(args.Windows) > maxBatchWindows {
			return fmt.Errorf("wire: batch probe of %d windows exceeds the %d bound", len(args.Windows), maxBatchWindows)
		}
		reply.Capacity = s.site.Servers()
		reply.Results = make([]WindowProbe, len(args.Windows))
		for i, w := range args.Windows {
			n, epoch, siteNow := s.site.ProbeViewTraced(obs.SpanContext{}, args.Now, w.Start, w.End)
			reply.Results[i] = WindowProbe{Available: n, Epoch: epoch, SiteNow: siteNow}
		}
		return nil
	})
}

// watchClient returns the dedicated watch transport, dialing it lazily and
// redialing after a sever. Kept separate from the main transport on
// purpose: a long-poll parked for WatchPoll would trip CallTimeout there
// and sever every multiplexed in-flight call.
func (c *Client) watchClient() (*rpc.Client, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	if closed {
		return nil, rpc.ErrShutdown
	}
	if c.watchC != nil {
		return c.watchC, nil
	}
	rc, err := c.redialLocked()
	if err != nil {
		return nil, err
	}
	c.watchC = rc
	return rc, nil
}

// severWatch discards a broken watch transport so the next poll redials.
func (c *Client) severWatch(broken *rpc.Client) {
	c.watchMu.Lock()
	if c.watchC == broken {
		c.watchC = nil
	}
	c.watchMu.Unlock()
	broken.Close()
}

// closeWatch tears the watch transport down with the client.
func (c *Client) closeWatch() {
	c.watchMu.Lock()
	defer c.watchMu.Unlock()
	if c.watchC != nil {
		c.watchC.Close()
		c.watchC = nil
	}
}

// WatchEpoch implements grid.Conn: one bounded long-poll on the dedicated
// watch transport. The local deadline is the requested wait plus a margin
// (CallTimeout when configured), so a healthy park never times out locally
// but a hung or partitioned server does; expiry severs only the watch
// transport.
func (c *Client) WatchEpoch(after uint64, maxWait time.Duration) (grid.EpochEvent, bool, error) {
	if maxWait <= 0 {
		maxWait = defaultWatchWait
	}
	rc, err := c.watchClient()
	if err != nil {
		return grid.EpochEvent{}, false, err
	}
	margin := c.cfg.CallTimeout
	if margin <= 0 {
		margin = 30 * time.Second
	}
	args := WatchArgs{AfterEpoch: after, MaxWaitMillis: int64(maxWait / time.Millisecond)}
	var reply WatchReply
	call := rc.Go(ServiceName+".Watch", args, &reply, make(chan *rpc.Call, 1))
	timer := time.NewTimer(maxWait + margin)
	defer timer.Stop()
	select {
	case done := <-call.Done:
		if done.Error != nil {
			if isConnError(done.Error) {
				c.severWatch(rc)
			}
			return grid.EpochEvent{}, false, done.Error
		}
		ev := grid.EpochEvent{Epoch: reply.Epoch, Salt: reply.Salt, SiteNow: reply.SiteNow}
		return ev, reply.Changed, nil
	case <-timer.C:
		c.severWatch(rc)
		if c.timeouts != nil {
			c.timeouts.Inc()
		}
		return grid.EpochEvent{}, false, fmt.Errorf("wire: watch %s after %v: %w", c.addr, maxWait+margin, os.ErrDeadlineExceeded)
	}
}

// ProbeBatch implements grid.Conn: the whole Δt ladder in one round trip.
func (c *Client) ProbeBatch(now period.Time, windows []grid.Window) ([]grid.ProbeResult, error) {
	args := BatchProbeArgs{Now: now, Windows: make([]BatchWindow, len(windows))}
	for i, w := range windows {
		args.Windows[i] = BatchWindow{Start: w.Start, End: w.End}
	}
	var reply BatchProbeReply
	if err := c.call("ProbeBatch", args, &reply); err != nil {
		return nil, err
	}
	if len(reply.Results) != len(windows) {
		return nil, fmt.Errorf("wire: batch probe answered %d of %d windows", len(reply.Results), len(windows))
	}
	out := make([]grid.ProbeResult, len(reply.Results))
	for i, r := range reply.Results {
		out[i] = grid.ProbeResult{Available: r.Available, Capacity: reply.Capacity, Epoch: r.Epoch, SiteNow: r.SiteNow}
	}
	return out, nil
}
