package grid

import (
	"bytes"
	"encoding/json"
	"testing"

	"coalloc/internal/core"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

func instrTestSite(t *testing.T, name string) *Site {
	t.Helper()
	s, err := NewSite(name, core.Config{
		Servers:  8,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSiteStatus(t *testing.T) {
	site := instrTestSite(t, "alpha")
	if _, err := site.Prepare(0, "h1", 0, period.Time(period.Hour), 4, period.Hour); err != nil {
		t.Fatal(err)
	}
	st := site.Status()
	if st.Name != "alpha" || st.Servers != 8 {
		t.Errorf("identity = %q/%d", st.Name, st.Servers)
	}
	if st.PendingHolds != 1 || st.Prepared != 1 {
		t.Errorf("holds = %d, prepared = %d; want 1, 1", st.PendingHolds, st.Prepared)
	}
	if st.Sched.Accepted != 1 {
		t.Errorf("embedded scheduler accepted = %d, want 1", st.Sched.Accepted)
	}
	if st.Utilization <= 0 {
		t.Errorf("utilization = %v, want > 0", st.Utilization)
	}
	if st.Ops == 0 {
		t.Error("ops = 0, want > 0")
	}

	if err := site.Commit(0, "h1"); err != nil {
		t.Fatal(err)
	}
	st = site.Status()
	if st.PendingHolds != 0 || st.Committed != 1 {
		t.Errorf("after commit: holds = %d, committed = %d", st.PendingHolds, st.Committed)
	}
}

// metricValues renders reg and returns every scalar metric by name.
func metricValues(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteExpvar(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(raw))
	for name, v := range raw {
		if f, ok := v.(float64); ok {
			out[name] = f
		}
	}
	return out
}

// checkSchedMetrics asserts that every sched.* metric equals the site's
// Status().Sched.
func checkSchedMetrics(t *testing.T, reg *obs.Registry, site *Site) {
	t.Helper()
	m := metricValues(t, reg)
	st := site.Status().Sched
	for name, want := range map[string]float64{
		"sched.submitted": float64(st.Submitted),
		"sched.accepted":  float64(st.Accepted),
		"sched.rejected":  float64(st.Rejected),
		"sched.attempts":  float64(st.TotalAttempts),
		"sched.releases":  float64(st.Releases),
	} {
		if got, ok := m[name]; !ok || got != want {
			t.Errorf("%s = %v (registered %v), want %v", name, got, ok, want)
		}
	}
}

func TestSiteInstrumentMetrics(t *testing.T) {
	site := instrTestSite(t, "alpha")
	reg := obs.NewRegistry()
	site.Instrument(reg)

	if _, err := site.Prepare(0, "h1", 0, period.Time(period.Hour), 2, period.Minute); err != nil {
		t.Fatal(err)
	}
	if err := site.Abort(0, "h1"); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Prepare(0, "h2", 0, period.Time(period.Hour), 2, period.Minute); err != nil {
		t.Fatal(err)
	}
	// Advance past the lease: h2 expires.
	site.Probe(period.Time(period.Hour), period.Time(period.Hour), period.Time(2*period.Hour))

	m := metricValues(t, reg)
	if m["site.prepared"] != 2 || m["site.aborted"] != 1 || m["site.expired"] != 1 || m["site.pending_holds"] != 0 {
		t.Errorf("site metrics = prepared %v, aborted %v, expired %v, pending %v; want 2, 1, 1, 0",
			m["site.prepared"], m["site.aborted"], m["site.expired"], m["site.pending_holds"])
	}
	if m["sched.submitted"] != 2 || m["sched.accepted"] != 2 {
		t.Errorf("sched.submitted = %v, sched.accepted = %v; want 2, 2", m["sched.submitted"], m["sched.accepted"])
	}
	checkSchedMetrics(t, reg, site)
}

// TestInstrumentSurvivesResetFromSnapshot pins that the sched.* metrics
// follow the scheduler a snapshot reset swaps in (a standby's bootstrap
// from a primary checkpoint), rather than the one Instrument saw.
func TestInstrumentSurvivesResetFromSnapshot(t *testing.T) {
	donor := instrTestSite(t, "alpha")
	if _, err := donor.Prepare(0, "d1", 0, period.Time(period.Hour), 3, period.Hour); err != nil {
		t.Fatal(err)
	}
	if err := donor.Commit(0, "d1"); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := donor.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}

	site := instrTestSite(t, "alpha")
	reg := obs.NewRegistry()
	site.Instrument(reg)
	if err := site.ResetFromSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := site.Prepare(0, "h1", 0, period.Time(period.Hour), 2, period.Hour); err != nil {
		t.Fatal(err)
	}
	if err := site.Commit(0, "h1"); err != nil {
		t.Fatal(err)
	}
	// A rejection and a compensating abort move the remaining counters.
	if _, err := site.Prepare(0, "h2", 0, period.Time(period.Hour), 8, period.Hour); err == nil {
		t.Fatal("prepare beyond free capacity succeeded")
	}
	if err := site.Abort(0, "h1"); err != nil {
		t.Fatal(err)
	}
	if st := site.Status().Sched; st.Submitted != 3 || st.Accepted != 2 || st.Rejected != 1 || st.Releases != 1 {
		t.Fatalf("Status().Sched = %+v", st)
	}
	checkSchedMetrics(t, reg, site)
}

func TestBrokerInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	var conns []Conn
	for _, n := range []string{"a", "b"} {
		conns = append(conns, LocalConn{Site: instrTestSite(t, n)})
	}
	b, err := NewBroker(BrokerConfig{Registry: reg}, conns...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.CoAllocate(0, Request{ID: 1, Duration: period.Hour, Servers: 12}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CoAllocate(0, Request{ID: 2, Duration: period.Hour, Servers: 999}); err == nil {
		t.Fatal("want rejection for oversized request")
	}
	if v := reg.Counter("broker.requests").Value(); v != 2 {
		t.Errorf("broker.requests = %d, want 2", v)
	}
	if v := reg.Counter("broker.granted").Value(); v != 1 {
		t.Errorf("broker.granted = %d, want 1", v)
	}
	if v := reg.Counter("broker.rejected").Value(); v != 1 {
		t.Errorf("broker.rejected = %d, want 1", v)
	}
	if reg.Histogram("broker.window.latency").Count() == 0 {
		t.Error("window latency histogram empty")
	}
	spans := map[string]int{}
	roots := map[bool]int{} // broker.coallocate roots by errored
	for _, tr := range b.Recorder().Traces(obs.TraceQuery{}) {
		if tr.Root == "broker.coallocate" {
			roots[tr.Err]++
		}
		for _, sp := range tr.Spans {
			spans[sp.Name]++
		}
	}
	if spans["broker.prepare"] != 2 || spans["broker.commit"] != 2 {
		t.Errorf("broker spans = %v (want 2 prepares, 2 commits)", spans)
	}
	if roots[false] != 1 || roots[true] != 1 {
		t.Errorf("broker.coallocate roots: %d granted, %d errored; want 1, 1", roots[false], roots[true])
	}
}
