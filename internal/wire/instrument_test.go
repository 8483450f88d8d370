package wire

import (
	"testing"
	"time"

	"coalloc/internal/faultnet"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// TestClientInstrumentPerMethodLatency pins that Instrument wires every RPC
// method to its own latency histogram under "wire.client.<site>." and that
// the error counter moves only on failures — so a broker federating several
// sites can tell their link qualities apart per method.
func TestClientInstrumentPerMethodLatency(t *testing.T) {
	_, _, addr := startRawSite(t, "metered", 4)
	reg := obs.NewRegistry()
	c, err := DialConfig("tcp", addr, ClientConfig{
		DialTimeout: time.Second,
		CallTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Instrument(reg)

	w := period.Time(period.Hour)
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, w); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, w); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RangeView(0, 0, w); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PrepareConflict(obs.SpanContext{}, 0, "h-m", 0, w, 2, 5*period.Minute, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitTraced(obs.SpanContext{}, 0, "h-m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}

	wants := map[string]uint64{
		"Probe":   2,
		"Range":   1,
		"Prepare": 1,
		"Commit":  1,
		"Abort":   0,
		"Stats":   1,
	}
	for method, want := range wants {
		h := reg.Histogram("wire.client.metered." + method + ".latency")
		if got := h.Count(); got != want {
			t.Errorf("%s latency count = %d, want %d", method, got, want)
		}
		if want > 0 && h.Sum() <= 0 {
			t.Errorf("%s latency sum = %v, want > 0", method, h.Sum())
		}
	}
	if got := reg.Counter("wire.client.metered.errors").Value(); got != 0 {
		t.Fatalf("errors = %d after all-success calls, want 0", got)
	}

	// A failing call moves both its method histogram and the error counter.
	if err := c.CommitTraced(obs.SpanContext{}, 0, "no-such-hold"); err == nil {
		t.Fatal("commit of unknown hold succeeded")
	}
	if got := reg.Histogram("wire.client.metered.Commit.latency").Count(); got != 2 {
		t.Fatalf("Commit latency count after failure = %d, want 2", got)
	}
	if got := reg.Counter("wire.client.metered.errors").Value(); got != 1 {
		t.Fatalf("errors = %d after one failed call, want 1", got)
	}
}

// TestClientInstrumentTimeoutAndReconnectCounters drives one Hang/Heal cycle
// through a fault proxy and pins the PR 4 counters: the timed-out call
// increments timeouts (and still lands in its method histogram), and the
// transparent redial afterwards increments reconnects exactly once.
func TestClientInstrumentTimeoutAndReconnectCounters(t *testing.T) {
	_, _, addr := startRawSite(t, "metered-hang", 4)
	proxy, err := faultnet.Listen(addr, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	reg := obs.NewRegistry()
	c, err := DialConfig("tcp", proxy.Addr(), ClientConfig{
		DialTimeout: time.Second,
		CallTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Instrument(reg)

	proxy.SetMode(faultnet.Hang)
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, period.Time(period.Hour)); err == nil {
		t.Fatal("probe through a hung proxy succeeded")
	}
	if got := reg.Counter("wire.client.metered-hang.timeouts").Value(); got != 1 {
		t.Fatalf("timeouts = %d after one hung call, want 1", got)
	}
	if got := reg.Histogram("wire.client.metered-hang.Probe.latency").Count(); got != 1 {
		t.Fatalf("Probe latency count = %d; timed-out calls must still be measured", got)
	}

	proxy.Heal()
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, period.Time(period.Hour)); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if got := reg.Counter("wire.client.metered-hang.reconnects").Value(); got != 1 {
		t.Fatalf("reconnects = %d after one redial, want 1", got)
	}
	if got := reg.Counter("wire.client.metered-hang.timeouts").Value(); got != 1 {
		t.Fatalf("timeouts = %d after heal, want still 1", got)
	}
}
