package wire

import (
	"errors"
	"net"
	"testing"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// startServer returns a serving wire.Server plus its address and the serve
// error channel, without the automatic cleanup of startSite.
func startServer(t *testing.T, name string) (*grid.Site, *Server, string, chan error) {
	t.Helper()
	site, err := grid.NewSite(name, core.Config{
		Servers:  8,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(site)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	return site, srv, l.Addr().String(), errCh
}

// TestShutdownDrains covers the gridd shutdown sequence: RPCs issued before
// Shutdown complete, Serve returns net.ErrClosed, new dials fail, and state
// mutated by the drained call is visible afterwards (so a snapshot taken
// after Shutdown cannot lose it).
func TestShutdownDrains(t *testing.T) {
	site, srv, addr, errCh := startServer(t, "drain")
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.PrepareConflict(obs.SpanContext{}, 0, "h1", 0, period.Time(period.Hour), 4, period.Hour, 0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(time.Second); err != nil && !errors.Is(err, net.ErrClosed) {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("serve returned %v, want net.ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// The prepared hold survived the drain: snapshotting now is safe.
	if st := site.Status(); st.Prepared != 1 || st.PendingHolds != 1 {
		t.Fatalf("status after shutdown = %+v", st)
	}
	if _, err := Dial("tcp", addr); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestShutdownForceClosesIdleConns ensures a client that holds its
// connection open (a broker between requests) cannot stall shutdown past
// the grace period.
func TestShutdownForceClosesIdleConns(t *testing.T) {
	_, srv, addr, _ := startServer(t, "idle")
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, period.Time(period.Hour)); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(50 * time.Millisecond) }()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown blocked on an idle connection")
	}
	// The connection was severed server-side: the next call must fail.
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, period.Time(period.Hour)); err == nil {
		t.Fatal("probe succeeded over a force-closed connection")
	}
}

func TestStatsOverRPC(t *testing.T) {
	_, srv, addr, _ := startServer(t, "stats-site")
	defer srv.Shutdown(time.Second)
	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.PrepareConflict(obs.SpanContext{}, 0, "h1", 0, period.Time(period.Hour), 2, period.Hour, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitTraced(obs.SpanContext{}, 0, "h1"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "stats-site" || st.Servers != 8 {
		t.Errorf("identity = %q/%d", st.Name, st.Servers)
	}
	if st.Prepared != 1 || st.Committed != 1 {
		t.Errorf("counters = %+v", st)
	}
	if st.Sched.Accepted != 1 {
		t.Errorf("scheduler stats = %+v", st.Sched)
	}
}

func TestRPCInstrumentation(t *testing.T) {
	site, srv, addr, _ := startServer(t, "instr")
	defer srv.Shutdown(time.Second)
	serverReg := obs.NewRegistry()
	srv.Instrument(serverReg)
	_ = site

	c, err := Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clientReg := obs.NewRegistry()
	c.Instrument(clientReg)

	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, period.Time(period.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PrepareConflict(obs.SpanContext{}, 0, "dup", 0, period.Time(period.Hour), 2, period.Hour, 0); err != nil {
		t.Fatal(err)
	}
	// A duplicate hold errors server-side; both error counters must move.
	if _, err := c.PrepareConflict(obs.SpanContext{}, 0, "dup", 0, period.Time(period.Hour), 2, period.Hour, 0); err == nil {
		t.Fatal("duplicate prepare succeeded")
	}

	if n := clientReg.Histogram("wire.client.instr.Probe.latency").Count(); n != 1 {
		t.Errorf("client probe latency count = %d, want 1", n)
	}
	if n := clientReg.Histogram("wire.client.instr.Prepare.latency").Count(); n != 2 {
		t.Errorf("client prepare latency count = %d, want 2", n)
	}
	if v := clientReg.Counter("wire.client.instr.errors").Value(); v != 1 {
		t.Errorf("client errors = %d, want 1", v)
	}
	if n := serverReg.Histogram("wire.server.Prepare.latency").Count(); n != 2 {
		t.Errorf("server prepare latency count = %d, want 2", n)
	}
	if v := serverReg.Counter("wire.server.errors").Value(); v != 1 {
		t.Errorf("server errors = %d, want 1", v)
	}
}
