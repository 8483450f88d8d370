package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/faultnet"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/replica"
	"coalloc/internal/wal"
	"coalloc/internal/wire"
)

// failoverPhase measures one run of the failover benchmark.
type failoverPhase struct {
	Phase     string  `json:"phase"` // "steady" or "failover"
	Seconds   float64 `json:"seconds"`
	Grants    int64   `json:"grants"`
	Errors    int64   `json:"errors"`
	GrantRate float64 `json:"grantsPerSec"`
	GrantP50  float64 `json:"grantP50Micros"`
	GrantP99  float64 `json:"grantP99Micros"`
	Failovers uint64  `json:"failovers"`
	// RecoveryMillis is the gap between cutting the primary's network and
	// the first grant served by the promoted standby; 0 in the steady phase.
	RecoveryMillis float64 `json:"recoveryMillis"`
	// LostAcked counts granted holds missing from the serving site after
	// the run — the zero-loss invariant; anything but 0 is a bug.
	LostAcked int64 `json:"lostAcked"`
}

// failoverResult is the whole -mode failover run.
type failoverResult struct {
	Mode        string          `json:"mode"`
	Servers     int             `json:"serversPerSite"`
	Clients     int             `json:"clients"`
	AckMode     string          `json:"ackMode"`
	CallTimeout string          `json:"callTimeout"`
	Phases      []failoverPhase `json:"phases"`
}

// haFixture is one replicated site: a semi-sync primary behind a fault
// proxy and a streaming standby, dialed through a FailoverConn.
type haFixture struct {
	primarySite *grid.Site
	primary     *replica.Primary
	plog        *wal.Log
	psrv        *wire.Server
	proxy       *faultnet.Proxy
	ssrv        *wire.Server
	standby     *replica.Standby
	closers     []func()
	fc          *grid.FailoverConn
	reg         *obs.Registry
}

func (f *haFixture) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

// startHAFixture boots the replicated pair over loopback TCP.
func startHAFixture(servers int, slotSize int64, slots int, seed int64, callTimeout time.Duration) (*haFixture, error) {
	f := &haFixture{reg: obs.NewRegistry()}
	fail := func(err error) (*haFixture, error) { f.close(); return nil, err }
	fresh := func() (*grid.Site, error) {
		return grid.NewSite("ha", core.Config{
			Servers:  servers,
			SlotSize: period.Duration(slotSize),
			Slots:    slots,
		}, 0)
	}

	sdir, err := os.MkdirTemp("", "loadgen-sb-*")
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { os.RemoveAll(sdir) })
	// Interval sync on both logs: the benchmark measures the failover
	// machinery (breaker, promotion, re-target), not fsync; SyncAlways
	// convoys under group commit can push prepares past the RPC deadline
	// and trip the breaker in the steady baseline.
	walOpts := wal.Options{SegmentSize: 4 << 20, Sync: wal.SyncInterval, SyncEvery: 10 * time.Millisecond}
	f.standby, err = replica.NewStandby(replica.StandbyConfig{
		Dir:   sdir,
		WAL:   walOpts,
		Fresh: fresh,
	})
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { f.standby.Close() })
	f.ssrv, err = wire.NewServer(f.standby.Site())
	if err != nil {
		return fail(err)
	}
	if err := f.ssrv.EnableReplication(f.standby); err != nil {
		return fail(err)
	}
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	go f.ssrv.Serve(sl)
	f.closers = append(f.closers, func() { f.ssrv.Close() })

	pdir, err := os.MkdirTemp("", "loadgen-pri-*")
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { os.RemoveAll(pdir) })
	var rec *wal.Recovery
	f.plog, rec, err = wal.Open(pdir, walOpts)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { f.plog.Close() })
	f.primarySite, _, err = grid.RecoverSite(rec.Checkpoint, rec.Records, fresh)
	if err != nil {
		return fail(err)
	}
	f.primary, err = replica.NewPrimary(replica.PrimaryConfig{
		Site: f.primarySite, Log: f.plog, Dir: pdir,
		Mode: replica.SemiSync, AckTimeout: -1,
		Registry: f.reg,
	})
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, f.primary.Close)
	streamCli, err := wire.DialReplica("tcp", sl.Addr().String(), wire.ClientConfig{
		DialTimeout: 2 * time.Second, CallTimeout: 2 * time.Second,
	})
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { streamCli.Close() })
	if err := f.primary.AddReplica("sb", streamCli); err != nil {
		return fail(err)
	}

	f.psrv, err = wire.NewServer(f.primarySite)
	if err != nil {
		return fail(err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	go f.psrv.Serve(pl)
	f.closers = append(f.closers, func() { f.psrv.Close() })
	f.proxy, err = faultnet.Listen(pl.Addr().String(), seed)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { f.proxy.Close() })

	cfg := wire.ClientConfig{DialTimeout: callTimeout, CallTimeout: callTimeout}
	primaryCli, err := wire.DialConfig("tcp", f.proxy.Addr(), cfg)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { primaryCli.Close() })
	standbyCli, err := wire.DialConfig("tcp", sl.Addr().String(), cfg)
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { standbyCli.Close() })
	promoter, err := wire.DialReplica("tcp", sl.Addr().String(), wire.ClientConfig{
		DialTimeout: 2 * time.Second, CallTimeout: 2 * time.Second,
	})
	if err != nil {
		return fail(err)
	}
	f.closers = append(f.closers, func() { promoter.Close() })
	f.fc = grid.NewFailoverConn(primaryCli,
		grid.FailoverTarget{Conn: standbyCli, Promoter: promoter})
	return f, nil
}

// runFailoverPhase drives closed-loop CoAllocate clients against the
// replicated site. With storm set, the primary's network hangs at half
// time and the phase measures the automatic promotion.
func runFailoverPhase(phase string, servers int, slotSize int64, slots, clients int, dur, callTimeout time.Duration, seed int64, storm bool) (failoverPhase, error) {
	f, err := startHAFixture(servers, slotSize, slots, seed, callTimeout)
	if err != nil {
		return failoverPhase{}, err
	}
	defer f.close()
	br, err := grid.NewBroker(grid.BrokerConfig{
		Name:             "loadgen",
		Strategy:         grid.Greedy{},
		MaxAttempts:      1,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 4,
		BreakerCooldown:  50 * time.Millisecond,
		Registry:         f.reg,
	}, f.fc)
	if err != nil {
		return failoverPhase{}, err
	}

	var (
		grants, errs int64
		next         atomic.Int64 // distinct windows, so capacity never binds
		stop         atomic.Bool
		lat          = &sampler{}
		mu           sync.Mutex
		granted      []string
		cutAt        atomic.Int64 // unix nanos when the primary was cut
		recoveredAt  atomic.Int64 // unix nanos of the first grant after the cut
	)
	span := int64(slots) * slotSize / 2 // stay inside the scheduling horizon
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n, e int64
			var ids []string
			for !stop.Load() {
				i := next.Add(1)
				start := period.Time((i * slotSize) % span)
				t0 := time.Now()
				alloc, err := br.CoAllocate(0, grid.Request{
					ID: i, Start: start, Duration: period.Duration(slotSize), Servers: 1,
				})
				if err != nil {
					e++
					continue
				}
				lat.observe(time.Since(t0))
				n++
				if cutAt.Load() != 0 {
					recoveredAt.CompareAndSwap(0, time.Now().UnixNano())
				}
				// Keep every 8th grant committed for the zero-loss audit;
				// release the rest so capacity never binds the measurement.
				if i%8 == 0 {
					ids = append(ids, alloc.HoldID)
				} else {
					f.fc.AbortTraced(obs.SpanContext{}, 0, alloc.HoldID)
				}
			}
			atomic.AddInt64(&grants, n)
			atomic.AddInt64(&errs, e)
			mu.Lock()
			granted = append(granted, ids...)
			mu.Unlock()
		}()
	}

	t0 := time.Now()
	if storm {
		time.Sleep(dur / 2)
		cutAt.Store(time.Now().UnixNano())
		f.proxy.SetMode(faultnet.Hang)
		time.Sleep(dur / 2)
	} else {
		time.Sleep(dur)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()

	// Zero-loss audit: every grant the broker acknowledged must be
	// committed on whichever node now serves the site.
	serving := f.primarySite
	if f.standby.Promoted() {
		serving = f.standby.Site()
	}
	var lost int64
	for _, id := range granted {
		if _, committed := serving.LookupHold(id); !committed {
			lost++
		}
	}

	p := failoverPhase{
		Phase:     phase,
		Seconds:   elapsed,
		Grants:    grants,
		Errors:    errs,
		GrantRate: float64(grants) / elapsed,
		GrantP50:  lat.percentile(0.50),
		GrantP99:  lat.percentile(0.99),
		Failovers: f.reg.Counter("broker.site.failovers").Value(),
		LostAcked: lost,
	}
	if cut, rec := cutAt.Load(), recoveredAt.Load(); cut != 0 && rec > cut {
		p.RecoveryMillis = float64(rec-cut) / float64(time.Millisecond)
	}
	if storm && p.Failovers == 0 {
		return p, fmt.Errorf("failover storm never promoted the standby")
	}
	return p, nil
}

// failoverMain implements -mode failover: the same closed-loop write
// workload against a replicated site, once undisturbed and once with the
// primary killed at half time, so the report shows what a failover costs
// (recovery gap, error burst) and what it preserves (every acked grant).
func failoverMain(servers int, slotSize int64, slots, clients int, dur, callTimeout time.Duration, seed int64, out string) {
	res := failoverResult{
		Mode:        "failover",
		Servers:     servers,
		Clients:     clients,
		AckMode:     replica.SemiSync.String(),
		CallTimeout: callTimeout.String(),
	}
	for _, storm := range []bool{false, true} {
		phase := "steady"
		if storm {
			phase = "failover"
		}
		p, err := runFailoverPhase(phase, servers, slotSize, slots, clients, dur, callTimeout, seed, storm)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		res.Phases = append(res.Phases, p)
		fmt.Fprintf(os.Stderr, "failover %-8s clients=%d grants=%.0f/s (p99 %.0fus) errors=%d failovers=%d recovery=%.0fms lost=%d\n",
			phase, clients, p.GrantRate, p.GrantP99, p.Errors, p.Failovers, p.RecoveryMillis, p.LostAcked)
	}
	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
