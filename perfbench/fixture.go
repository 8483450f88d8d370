package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/job"
	"coalloc/internal/obs"
	"coalloc/internal/oracle"
	"coalloc/internal/period"
	"coalloc/internal/wal"
	"coalloc/internal/wire"
)

// Topology shared by every workload: three sites splitting the 512
// processors of the CTC trace, each with the paper's 15-minute slots.
const (
	slotSize = 15 * period.Minute
	// slots gives a 54 h horizon: CTC's 44 h longest job, plus a 3 h
	// advance-reservation lead, plus the 3.75 h of a 16-rung Δt ladder,
	// plus the partial base slot.
	slots = 216
	// lease is the 2PC hold lease in simulated time, eight slots. Every
	// broker has a single calling goroutine and simulated time only moves
	// forward, so no site clock passes a pending hold's expiry between its
	// prepare and its commit.
	lease = 2 * period.Hour
)

var siteServers = []int{171, 171, 170}

// clientConfig bounds every site RPC the way the shipped gridctl does, so a
// wedged site fails the run instead of hanging it.
var clientConfig = wire.ClientConfig{DialTimeout: 5 * time.Second, CallTimeout: 10 * time.Second}

func siteName(i int) string { return fmt.Sprintf("site-%c", 'a'+i) }

func siteConfig(i int) core.Config {
	return core.Config{Servers: siteServers[i], SlotSize: slotSize, Slots: slots}
}

// newSites builds the federation's sites with their flight recorders on, as
// the shipped daemon runs them.
func newSites() ([]*grid.Site, error) {
	sites := make([]*grid.Site, len(siteServers))
	for i := range sites {
		s, err := grid.NewSite(siteName(i), siteConfig(i), 0)
		if err != nil {
			return nil, err
		}
		s.SetRecorder(obs.NewRecorder(obs.RecorderConfig{}))
		sites[i] = s
	}
	return sites, nil
}

// federation is the system under test: sites with write-ahead logs, each
// served over loopback TCP, and the brokers the workload dials.
type federation struct {
	sites []*grid.Site
	// prefill is the site-call stream that built the sites' starting state,
	// for the traced run's replays.
	prefill []call
	simNow  period.Time // site clock once prefilled
	ledger  *ledger

	walDir  string
	logs    []*wal.Log
	walT    []*timedWAL // traced only
	servers []*wire.Server
	addrs   []string
	serving sync.WaitGroup

	traced    bool
	calls     *callLog     // traced only: every site call the brokers make
	wireBytes atomic.Int64 // traced only: bytes through the site listeners
	clients   []*wire.Client
	brokers   []*grid.Broker
}

// startFederation builds the sites, replays the prefill log up to
// prefillUntil into them in process (an empty log leaves them empty),
// attaches a write-ahead log under walDir to each site and serves every
// site on a loopback listener.
func startFederation(walDir string, prefill []job.Request, traced bool) (f *federation, err error) {
	f = &federation{walDir: walDir, traced: traced}
	if traced {
		f.calls = &callLog{}
	}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.sites, err = newSites(); err != nil {
		return f, err
	}
	f.ledger = newLedger(f.sites)
	if len(prefill) > 0 {
		if f.prefill, f.simNow, err = prefillSites(f.sites, f.ledger, prefill, period.Time(prefillUntil)); err != nil {
			return f, err
		}
	}
	for _, s := range f.sites {
		dir := filepath.Join(walDir, s.Name())
		log, _, err := wal.Open(dir, walOptions)
		if err != nil {
			return f, fmt.Errorf("open wal for %s: %w", s.Name(), err)
		}
		f.logs = append(f.logs, log)
		if traced {
			tw := &timedWAL{log: log}
			f.walT = append(f.walT, tw)
			s.AttachWAL(tw)
		} else {
			s.AttachWAL(log)
		}
		srv, err := wire.NewServer(s)
		if err != nil {
			return f, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return f, err
		}
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, l.Addr().String())
		if traced {
			l = countingListener{Listener: l, bytes: &f.wireBytes}
		}
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = srv.Serve(l) // returns net.ErrClosed at shutdown
		}()
	}
	return f, nil
}

// newBroker dials its own connection to every site and builds a broker on
// them; under tracing each connection is wrapped in a timedConn.
func (f *federation) newBroker(cfg grid.BrokerConfig) (*grid.Broker, error) {
	id := len(f.brokers)
	conns := make([]grid.Conn, len(f.addrs))
	for i, addr := range f.addrs {
		c, err := wire.DialConfig("tcp", addr, clientConfig)
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, c)
		conns[i] = c
		if f.traced {
			conns[i] = &timedConn{fullConn: c, broker: id, site: i, log: f.calls}
		}
	}
	b, err := grid.NewBroker(cfg, conns...)
	if err != nil {
		return nil, err
	}
	f.brokers = append(f.brokers, b)
	return b, nil
}

// close tears the federation down in dependency order: clients first, which
// ends the brokers' watch long polls, then brokers, servers and logs.
func (f *federation) close() error {
	var errs []error
	for _, c := range f.clients {
		c.Close()
	}
	for _, b := range f.brokers {
		b.Close()
	}
	// A watch long poll stays parked in its site handler until the epoch
	// moves, and the server drains handlers before it returns; moving each
	// site clock by a slot bumps the epoch and releases them.
	for _, s := range f.sites {
		now := s.Status().Now.Add(slotSize)
		s.Probe(now, now, now.Add(slotSize))
	}
	for _, s := range f.servers {
		if err := s.Shutdown(time.Second); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	f.serving.Wait()
	for _, l := range f.logs {
		if err := l.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if f.walDir != "" {
		if err := os.RemoveAll(f.walDir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// ledger checks every grant and release the harness receives against one
// brute-force oracle per site, and keeps what the sites' counters must
// add up to.
type ledger struct {
	mu       sync.Mutex
	oracles  []*oracle.Oracle
	index    map[string]int
	released []uint64 // per site: committed shares released before their end
	problems []string
}

func newLedger(sites []*grid.Site) *ledger {
	l := &ledger{index: map[string]int{}, released: make([]uint64, len(sites))}
	for i, s := range sites {
		o, err := oracle.New(oracle.Config{Servers: s.Servers(), SlotSize: slotSize, Slots: slots}, 0)
		if err != nil {
			panic(err) // the constant configuration is valid
		}
		l.oracles = append(l.oracles, o)
		l.index[s.Name()] = i
	}
	return l
}

// fail records a problem; the caller holds l.mu.
func (l *ledger) fail(format string, args ...any) {
	const keep = 20
	if len(l.problems) < keep {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// failf records a problem found outside the ledger's own checks.
func (l *ledger) failf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.fail(format, args...)
}

// grant checks one committed co-allocation: the requested size and
// duration, a start no earlier than asked, and no server of any share
// already booked in the window.
func (l *ledger) grant(req grid.Request, a grid.MultiAllocation) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if a.TotalServers() != req.Servers || a.End-a.Start != period.Time(req.Duration) || a.Start < req.Start {
		l.fail("grant %s for job %d has %d servers over [%d,%d), asked %d for %d from %d",
			a.HoldID, req.ID, a.TotalServers(), a.Start, a.End, req.Servers, req.Duration, req.Start)
	}
	for _, sh := range a.Shares {
		i, ok := l.index[sh.Site]
		if !ok {
			l.fail("grant %s names unknown site %q", a.HoldID, sh.Site)
			continue
		}
		if err := l.oracles[i].Allocate(sh.Servers, a.Start, a.End); err != nil {
			l.fail("grant %s double-books %s: %v", a.HoldID, sh.Site, err)
		}
	}
}

// release mirrors an early release at now into the oracles.
func (l *ledger) release(now period.Time, a grid.MultiAllocation) {
	if now >= a.End {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, sh := range a.Shares {
		i := l.index[sh.Site]
		if err := l.oracles[i].Release(sh.Servers, a.Start, a.End, now); err != nil {
			l.fail("release of %s at %s: %v", a.HoldID, sh.Site, err)
		}
		l.released[i]++
	}
}

// checkDrained verifies each site once all traffic has stopped: no hold is
// left undecided, and every prepare ended committed, aborted or expired.
// Aborts also count the committed shares the harness released early, so
// those are subtracted.
func (l *ledger) checkDrained(sites []*grid.Site) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, s := range sites {
		if n := s.PendingHolds(); n != 0 {
			l.fail("%s has %d undecided holds after the run", s.Name(), n)
		}
		prepared, committed, aborted, expired := s.Stats()
		if prepared+l.released[i] != committed+aborted+expired {
			l.fail("%s: prepared %d + released %d != committed %d + aborted %d + expired %d",
				s.Name(), prepared, l.released[i], committed, aborted, expired)
		}
	}
}

// walOptions is every site log's policy: fsync at most every 100 ms,
// piggybacked on appends, as gridd runs with -wal-sync=interval.
var walOptions = wal.Options{Sync: wal.SyncInterval, SyncEvery: 100 * time.Millisecond}
