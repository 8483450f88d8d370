package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coalloc/internal/calendar"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/wire"
)

// backendPhase is one workload phase (probe or write) against one backend.
type backendPhase struct {
	Phase   string  `json:"phase"` // "probe" or "write"
	Seconds float64 `json:"seconds"`
	Ops     int64   `json:"ops"`
	Rate    float64 `json:"opsPerSec"`
	P50     float64 `json:"p50Micros"`
	P99     float64 `json:"p99Micros"`
}

// backendRun is one availability backend's entry in the head-to-head race.
type backendRun struct {
	Backend string         `json:"backend"`
	Phases  []backendPhase `json:"phases"`
}

// backendsResult is a whole -mode backends run.
type backendsResult struct {
	Mode        string       `json:"mode"`
	Servers     int          `json:"serversPerSite"`
	Clients     int          `json:"clients"`
	CallTimeout string       `json:"callTimeout"`
	Runs        []backendRun `json:"runs"`
	// Rate ratios flat/dtree per phase, when both backends ran: >1 means the
	// flat backend was faster on that path.
	ProbeRatio float64 `json:"flatOverDtreeProbe,omitempty"`
	WriteRatio float64 `json:"flatOverDtreeWrite,omitempty"`
}

// backendMember is one raced backend: a seeded site on that index behind a
// real wire server on loopback TCP, so the comparison includes the full RPC
// path both backends sit under in production.
type backendMember struct {
	server *wire.Server
	client *wire.Client
}

func (m *backendMember) close() {
	if m.client != nil {
		m.client.Close()
	}
	if m.server != nil {
		m.server.Close()
	}
}

func startBackendMember(backend string, servers int, slotSize int64, slots int, cfg wire.ClientConfig) (*backendMember, error) {
	site, err := seedSiteBackend("race-"+backend, backend, servers, slotSize, slots)
	if err != nil {
		return nil, err
	}
	srv, err := wire.NewServer(site)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	go srv.Serve(l)
	m := &backendMember{server: srv}
	m.client, err = wire.DialConfig("tcp", l.Addr().String(), cfg)
	if err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// backendProbePhase drives closed-loop probes cycling a spread of windows —
// the two-phase search is the whole read path, so this is where the index
// structure dominates.
func backendProbePhase(c *wire.Client, clients int, slotSize int64, dur time.Duration) backendPhase {
	base := period.Time(int64(period.Hour))
	var ops int64
	lat := &sampler{}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			for i := 0; !stop.Load(); i++ {
				w := base.Add(period.Duration(int64(i%16) * slotSize))
				t0 := time.Now()
				if _, err := c.ProbeTraced(obs.SpanContext{}, 0, w, w.Add(period.Hour)); err != nil {
					continue
				}
				lat.observe(time.Since(t0))
				n++
			}
			atomic.AddInt64(&ops, n)
		}()
	}
	t0 := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	return backendPhase{
		Phase:   "probe",
		Seconds: elapsed,
		Ops:     ops,
		Rate:    float64(ops) / elapsed,
		P50:     lat.percentile(0.50),
		P99:     lat.percentile(0.99),
	}
}

// backendWritePhase drives closed-loop prepare/abort pairs: each round trip
// exercises search, allocate, and release on the index, under the same WAL-
// free journal path for every backend.
func backendWritePhase(c *wire.Client, clients int, dur time.Duration) backendPhase {
	window := period.Time(int64(period.Hour))
	windowEnd := window.Add(period.Hour)
	var ops int64
	lat := &sampler{}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var n int64
			for i := 0; !stop.Load(); i++ {
				id := fmt.Sprintf("race-w%d-%d", k, i)
				t0 := time.Now()
				if _, err := c.PrepareConflict(obs.SpanContext{}, 0, id, window, windowEnd, 1, period.Hour, 0); err != nil {
					continue
				}
				if err := c.AbortTraced(obs.SpanContext{}, 0, id); err != nil {
					return
				}
				lat.observe(time.Since(t0))
				n++
			}
			atomic.AddInt64(&ops, n)
		}(k)
	}
	t0 := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	return backendPhase{
		Phase:   "write",
		Seconds: elapsed,
		Ops:     ops,
		Rate:    float64(ops) / elapsed,
		P50:     lat.percentile(0.50),
		P99:     lat.percentile(0.99),
	}
}

// runBackends races every registered availability backend through identical
// probe and write phases over real loopback TCP. Each backend gets a fresh
// identically-seeded site, so the only variable is the index answering the
// searches.
func runBackends(servers int, slotSize int64, slots, clients int, dur, callTimeout time.Duration) (backendsResult, error) {
	cfg := wire.ClientConfig{DialTimeout: callTimeout, CallTimeout: callTimeout}
	res := backendsResult{
		Mode:        "backends",
		Servers:     servers,
		Clients:     clients,
		CallTimeout: callTimeout.String(),
	}
	names := calendar.Backends()
	phaseDur := dur / 2
	rates := map[string][2]float64{} // backend -> {probe rate, write rate}
	for _, name := range names {
		m, err := startBackendMember(name, servers, slotSize, slots, cfg)
		if err != nil {
			return backendsResult{}, err
		}
		run := backendRun{Backend: name}
		probe := backendProbePhase(m.client, clients, slotSize, phaseDur)
		write := backendWritePhase(m.client, clients, phaseDur)
		run.Phases = append(run.Phases, probe, write)
		m.close()
		rates[name] = [2]float64{probe.Rate, write.Rate}
		res.Runs = append(res.Runs, run)
	}
	if d, okD := rates["dtree"]; okD {
		if f, okF := rates["flat"]; okF && d[0] > 0 && d[1] > 0 {
			res.ProbeRatio = f[0] / d[0]
			res.WriteRatio = f[1] / d[1]
		}
	}
	return res, nil
}

// backendsMain implements -mode backends and prints the result as JSON.
func backendsMain(servers int, slotSize int64, slots, clients int, dur, callTimeout time.Duration, out string) {
	res, err := runBackends(servers, slotSize, slots, clients, dur, callTimeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	for _, run := range res.Runs {
		for _, p := range run.Phases {
			fmt.Fprintf(os.Stderr, "backends %-6s %-5s clients=%d rate=%.0f/s (p50 %.0fus p99 %.0fus)\n",
				run.Backend, p.Phase, clients, p.Rate, p.P50, p.P99)
		}
	}
	if res.ProbeRatio > 0 {
		fmt.Fprintf(os.Stderr, "backends flat/dtree: probe %.2fx write %.2fx\n", res.ProbeRatio, res.WriteRatio)
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
