package wire

import (
	"net"
	"testing"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/faultnet"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// startRawSite serves a fresh site and returns its address (no client).
func startRawSite(t *testing.T, name string, servers int) (*grid.Site, *Server, string) {
	t.Helper()
	site, err := grid.NewSite(name, core.Config{
		Servers:  servers,
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
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return site, srv, l.Addr().String()
}

func TestCallTimeoutOnHungSite(t *testing.T) {
	_, _, addr := startRawSite(t, "hung", 4)
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
	t0 := time.Now()
	_, probeErr := c.ProbeTraced(obs.SpanContext{}, 0, 0, period.Time(period.Hour))
	elapsed := time.Since(t0)
	if probeErr == nil {
		t.Fatal("probe through a hung proxy succeeded")
	}
	if !IsTimeout(probeErr) {
		t.Fatalf("probe error %v, want a timeout", probeErr)
	}
	if elapsed > time.Second {
		t.Fatalf("probe took %v; the call timeout did not bound it", elapsed)
	}
	if got := reg.Counter("wire.client.hung.timeouts").Value(); got == 0 {
		t.Fatal("timeout counter did not move")
	}

	// After the partition heals the client transparently reconnects: the
	// next call succeeds without a new Dial.
	proxy.Heal()
	r, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, period.Time(period.Hour))
	if err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	if r.Available != 4 {
		t.Fatalf("probe after heal = %+v, want 4 available", r)
	}
	if got := reg.Counter("wire.client.hung.reconnects").Value(); got == 0 {
		t.Fatal("reconnect counter did not move")
	}
}

func TestDialTimeoutOnBlackholeConnect(t *testing.T) {
	// A listener with a full backlog is hard to fabricate portably; a dead
	// port refuses fast. Instead prove the config plumbs through: dialing a
	// proxied site under Deny fails quickly rather than hanging.
	_, _, addr := startRawSite(t, "deny", 2)
	proxy, err := faultnet.Listen(addr, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	proxy.SetMode(faultnet.Deny)
	t0 := time.Now()
	_, dialErr := DialConfig("tcp", proxy.Addr(), ClientConfig{
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 200 * time.Millisecond,
	})
	if dialErr == nil {
		t.Fatal("dial through a denying proxy succeeded")
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("dial took %v, want bounded", d)
	}
}

func TestReconnectAfterServerRestart(t *testing.T) {
	site, srv, addr := startRawSite(t, "phoenix", 4)
	c, err := DialConfig("tcp", addr, ClientConfig{
		DialTimeout: time.Second,
		CallTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, 100); err != nil {
		t.Fatal(err)
	}

	// Kill the daemon: the established transport dies with it.
	_ = srv.Shutdown(time.Second)
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, 100); err == nil {
		t.Fatal("probe against a dead server succeeded")
	}

	// Restart on the same address; the client must redial transparently.
	srv2, err := NewServer(site)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	go srv2.Serve(l)
	t.Cleanup(func() { srv2.Close() })

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, 100); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected to the restarted server")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClosedClientStaysClosed(t *testing.T) {
	_, _, addr := startRawSite(t, "closer", 2)
	c, err := DialConfig("tcp", addr, ClientConfig{CallTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, 100); err == nil {
		t.Fatal("closed client served a call (reconnected after Close)")
	}
}

func TestServerIdleTimeoutReclaimsConn(t *testing.T) {
	site, err := grid.NewSite("idle", core.Config{Servers: 2, SlotSize: 900, Slots: 96}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(site)
	if err != nil {
		t.Fatal(err)
	}
	srv.IdleTimeout = 100 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	// A raw TCP connection that never speaks the protocol must be reclaimed.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection not reclaimed")
	}
}
