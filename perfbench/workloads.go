package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"coalloc/internal/grid"
	"coalloc/internal/job"
	"coalloc/internal/period"
)

// Load levels and input sizes.
const (
	// maxOpsPerSecond bounds how fast a closed-loop writer can go on any
	// host the benchmark runs on: generated inputs must outlast the run.
	maxOpsPerSecond = 1000
	prefillUntil    = 96 * period.Hour
	prefillSeed     = traceSeed           // draws the prefill's reservations and run times
	ctcInterarrival = 760 * period.Second // the calibrated log's mean gap between submissions
	// tailQuantile is the upper quantile reported end to end. On a shared
	// two-core host p90 and p99 swing with the neighbours; they are
	// reported per layer as client.*_p90_ms and client.*_p99_ms.
	tailQuantile = 0.75
	fanoutWindow = 64 // probe-fanout's distinct windows
	hotWindows   = 8  // cached-mix's shared windows
	hotKeep      = 8  // cached-mix allocations held before the oldest is released
	sampleEvery  = 16 // cached-mix reader requests kept for attribution
)

// pass is one measured run of a workload on a fresh federation.
type pass struct {
	fed     *federation
	elapsed time.Duration

	mainKind           string
	mainLat, sideLat   hist
	mainOps            int
	attempted, failed  int
	errs               []string
	heapMB, heapPeakMB float64
	allocBytes         uint64
	reqs               []request

	// Trace outcome (swf-replay) and write volume.
	submitted, granted, attempts int
	wait                         period.Duration
	writes                       int
}

// setupFunc builds a federation for a workload (the timed set-up) and
// returns it with the closure that drives it for the given seconds.
type setupFunc func(seed int64, seconds float64, walDir string, traced bool) (*fixture, error)

// fixture is a federation ready to drive, plus the closure that drives it.
type fixture struct {
	fed *federation
	run func(p *pass)
}

var scenarios = map[string]setupFunc{
	"swf-replay":   setupReplay,
	"probe-fanout": setupFanout,
	"cached-mix":   setupCachedMix,
}

// measure runs a fixture's load with the heap sampler and allocation
// counter around it, then checks the drained sites.
func measure(fx *fixture) *pass {
	p := &pass{fed: fx.fed}
	if fx.fed.traced {
		fx.fed.wireBytes.Store(0)
	}
	heapMon := startHeapSampler()
	a0 := heapAllocBytes()
	t0 := time.Now()
	fx.run(p)
	p.elapsed = time.Since(t0)
	p.allocBytes = heapAllocBytes() - a0
	p.heapMB, p.heapPeakMB = heapMon.stopMB()
	fx.fed.ledger.checkDrained(fx.fed.sites)
	return p
}

// setupReplay: the calibrated CTC log replayed as a closed loop through one
// caching, watching, batch-probing broker onto an empty federation.
func setupReplay(seed int64, seconds float64, walDir string, traced bool) (*fixture, error) {
	jobs := ctcTrace(int(maxOpsPerSecond*seconds)+500, seed)
	fed, err := startFederation(walDir, nil, traced)
	if err != nil {
		return nil, err
	}
	br, err := fed.newBroker(grid.BrokerConfig{Name: "replay", Lease: lease, ProbeCache: true, CacheWatch: true, BatchProbe: true})
	if err != nil {
		fed.close()
		return nil, err
	}
	run := func(p *pass) {
		r := newReplayer(client{br: br, ledger: fed.ledger, keepReqs: fed.traced}, jobs, jobs[len(jobs)-1].Submit)
		if r.run(time.Now().Add(time.Duration(seconds * float64(time.Second)))) {
			fed.ledger.failf("the log ran out after %d jobs, before the deadline", len(jobs))
		}
		p.mainKind = reqCoalloc
		p.mainLat, p.sideLat = r.coLat, r.relLat
		p.mainOps = r.submitted
		p.attempted = r.submitted + r.releases
		r.outcome(p)
	}
	return &fixture{fed: fed, run: run}, nil
}

// prefillLog is the start of the log, replayed into the sites before the
// read-heavy workloads. It is the same for every seed: the prefilled
// calendar is the fixture, and the seed draws the load run on it. A
// prefill drawn from the seed would change the calendar's size, and with
// it what each write's copy-on-write costs: cached-mix's writer p75 read
// 2.0 ms on some seeds and 3.4 ms on others.
func prefillLog() []job.Request {
	return ctcTrace(int(prefillUntil/ctcInterarrival)*2, prefillSeed)
}

// windowIn draws a seeded window of 1–12 hours that starts in the site
// horizon after now.
func windowIn(rng *rand.Rand, now period.Time) grid.Window {
	dur := period.Duration(1+rng.Intn(12)) * period.Hour
	base := (now/period.Time(slotSize) + 1) * period.Time(slotSize)
	span := period.Duration(slots-2)*slotSize - dur
	start := base.Add(period.Duration(rng.Int63n(int64(span/slotSize))) * slotSize)
	return grid.Window{Start: start, End: start.Add(dur)}
}

// setupFanout: two closed-loop clients, each through its own uncached
// broker, probing (3 of 4 calls) and range-searching (1 of 4) seeded
// windows of a prefilled, static federation.
func setupFanout(seed int64, seconds float64, walDir string, traced bool) (*fixture, error) {
	fed, err := startFederation(walDir, prefillLog(), traced)
	if err != nil {
		return nil, err
	}
	now := fed.simNow
	rng := rand.New(rand.NewSource(seed))
	windows := make([]grid.Window, fanoutWindow)
	// want[w][site] is the in-process answer for the static state.
	wantProbe := make([][]int, fanoutWindow)
	wantRange := make([][][]period.Period, fanoutWindow)
	for w := range windows {
		windows[w] = windowIn(rng, now)
		for _, s := range fed.sites {
			wantProbe[w] = append(wantProbe[w], s.Probe(now, windows[w].Start, windows[w].End))
			wantRange[w] = append(wantRange[w], s.RangeSearch(now, windows[w].Start, windows[w].End))
		}
	}
	const clients = 2
	brokers := make([]*grid.Broker, clients)
	for k := range brokers {
		if brokers[k], err = fed.newBroker(grid.BrokerConfig{Name: fmt.Sprintf("reader-%d", k), Lease: lease}); err != nil {
			fed.close()
			return nil, err
		}
	}
	run := func(p *pass) {
		type out struct {
			probe, rng        hist
			reqs              []request
			attempted, failed int
			errs              []string
		}
		outs := make([]out, clients)
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		var wg sync.WaitGroup
		for k := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				o := &outs[k]
				pick := rand.New(rand.NewSource(seed*31 + int64(k)))
				note := func(format string, args ...any) {
					if len(o.errs) < 5 {
						o.errs = append(o.errs, fmt.Sprintf(format, args...))
					}
				}
				for i := 0; time.Now().Before(deadline); i++ {
					w := pick.Intn(len(windows))
					win := windows[w]
					o.attempted++
					t0 := time.Now()
					if i%4 == 3 {
						res := brokers[k].RangeAll(now, win.Start, win.End)
						t1 := time.Now()
						o.rng.add(t1.Sub(t0))
						if fed.traced {
							o.reqs = append(o.reqs, request{broker: k, kind: reqRangeAll, t0: t0, t1: t1})
						}
						for s, r := range res {
							if r.Err != nil {
								o.failed++
								note("range %s: %v", r.Conn.Name(), r.Err)
								break
							}
							if !reflect.DeepEqual(r.Feasible, wantRange[w][s]) {
								fed.ledger.failf("range of window %d at %s differs from the in-process search", w, r.Conn.Name())
							}
						}
						continue
					}
					res := brokers[k].ProbeAll(now, win.Start, win.End)
					t1 := time.Now()
					o.probe.add(t1.Sub(t0))
					if fed.traced {
						o.reqs = append(o.reqs, request{broker: k, kind: reqProbeAll, t0: t0, t1: t1})
					}
					for s, a := range res {
						if a.Err != nil {
							o.failed++
							note("probe %s: %v", a.Conn.Name(), a.Err)
							break
						}
						if a.Available != wantProbe[w][s] {
							fed.ledger.failf("probe of window %d at %s: %d servers, in process %d", w, a.Conn.Name(), a.Available, wantProbe[w][s])
						}
					}
				}
			}()
		}
		wg.Wait()
		p.mainKind = reqProbeAll
		for _, o := range outs {
			p.mainLat.merge(&o.probe)
			p.sideLat.merge(&o.rng)
			p.reqs = append(p.reqs, o.reqs...)
			p.attempted += o.attempted
			p.failed += o.failed
			p.errs = append(p.errs, o.errs...)
		}
		p.mainOps = int(p.mainLat.n)
	}
	return &fixture{fed: fed, run: run}, nil
}

// setupCachedMix: one closed-loop reader probing hot windows through a
// caching, watching broker, beside a second broker that co-allocates on
// those windows back to back and releases each grant eight writes later.
func setupCachedMix(seed int64, seconds float64, walDir string, traced bool) (*fixture, error) {
	fed, err := startFederation(walDir, prefillLog(), traced)
	if err != nil {
		return nil, err
	}
	now := fed.simNow
	base := (now/period.Time(slotSize) + 1) * period.Time(slotSize)
	hot := make([]grid.Window, hotWindows)
	for k := range hot {
		start := base.Add(period.Duration(k+1) * period.Hour)
		hot[k] = grid.Window{Start: start, End: start.Add(2 * period.Hour)}
	}
	rng := rand.New(rand.NewSource(seed))
	writes := make([]grid.Request, int(maxOpsPerSecond*seconds)+500)
	for i := range writes {
		w := hot[rng.Intn(hotWindows)]
		writes[i] = grid.Request{ID: int64(i + 1), Start: w.Start, Duration: period.Duration(w.End - w.Start), Servers: 1 + rng.Intn(32)}
	}
	reader, err := fed.newBroker(grid.BrokerConfig{Name: "reader", Lease: lease, ProbeCache: true, CacheWatch: true})
	if err != nil {
		fed.close()
		return nil, err
	}
	writer, err := fed.newBroker(grid.BrokerConfig{Name: "writer", Lease: lease, ProbeCache: true, CacheWatch: true, BatchProbe: true})
	if err != nil {
		fed.close()
		return nil, err
	}
	run := func(p *pass) {
		start := time.Now()
		deadline := start.Add(time.Duration(seconds * float64(time.Second)))
		var (
			wg                    sync.WaitGroup
			reads                 hist
			readReqs              []request
			readFailed, readCalls int
			readErrs              []string
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				w := hot[i%hotWindows]
				t0 := time.Now()
				res := reader.ProbeAll(now, w.Start, w.End)
				t1 := time.Now()
				reads.add(t1.Sub(t0))
				// Millions of cache hits: keep every sampleEvery-th extent
				// for the traced run's attribution.
				if fed.traced && i%sampleEvery == 0 {
					readReqs = append(readReqs, request{broker: 0, kind: reqProbeAll, t0: t0, t1: t1})
				}
				readCalls++
				for _, a := range res {
					if a.Err != nil {
						readFailed++
						if len(readErrs) < 5 {
							readErrs = append(readErrs, a.Err.Error())
						}
						break
					}
				}
			}
		}()
		w := client{br: writer, id: 1, ledger: fed.ledger, keepReqs: fed.traced}
		var held []grid.MultiAllocation
		for _, req := range writes {
			if time.Now().After(deadline) {
				break
			}
			if a, ok := w.coallocate(now, req); ok {
				held = append(held, a)
			}
			if len(held) > hotKeep {
				w.release(now, held[0])
				held = held[1:]
			}
		}
		for _, a := range held {
			w.release(now, a)
		}
		if w.submitted == len(writes) {
			fed.ledger.failf("the %d generated writes ran out before the deadline", len(writes))
		}
		wg.Wait()
		p.mainKind = reqProbeAll
		p.mainLat, p.sideLat = reads, w.coLat
		p.mainOps = readCalls
		p.attempted = readCalls + w.submitted + w.releases
		p.failed = readFailed
		p.errs = readErrs
		p.reqs = readReqs
		w.outcome(p)
	}
	return &fixture{fed: fed, run: run}, nil
}
