package wire

import (
	"errors"
	"fmt"
	"net"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// siteAddrs records listen addresses by site name so tests can open extra
// connections to a started site.
var siteAddrs sync.Map

// startSite serves a fresh site on a loopback listener and returns a
// connected client.
func startSite(t *testing.T, name string, servers int) *Client {
	t.Helper()
	_, c := serveSite(t, name, servers)
	return c
}

// serveSite is startSite returning the served site too, so tests can
// inspect or mutate it behind the client's back.
func serveSite(t *testing.T, name string, servers int) (*grid.Site, *Client) {
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
	siteAddrs.Store(name, l.Addr().String())

	c, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return site, c
}

func TestInfoOverRPC(t *testing.T) {
	c := startSite(t, "remote-a", 6)
	if c.Name() != "remote-a" {
		t.Fatalf("name = %q", c.Name())
	}
	if n, err := c.Servers(); err != nil || n != 6 {
		t.Fatalf("servers = %d, %v", n, err)
	}
}

func TestProtocolOverRPC(t *testing.T) {
	c := startSite(t, "remote-a", 4)
	if r, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, period.Time(period.Hour)); err != nil || r.Available != 4 || r.Capacity != 4 {
		t.Fatalf("probe = %+v, %v", r, err)
	}
	servers, err := c.PrepareConflict(obs.SpanContext{}, 0, "h1", 0, period.Time(period.Hour), 3, period.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 3 {
		t.Fatalf("granted %v", servers)
	}
	if r, _ := c.ProbeTraced(obs.SpanContext{}, 0, 0, period.Time(period.Hour)); r.Available != 1 {
		t.Fatalf("probe during hold = %+v", r)
	}
	if err := c.CommitTraced(obs.SpanContext{}, 0, "h1"); err != nil {
		t.Fatal(err)
	}
	// Errors propagate across the wire.
	if err := c.CommitTraced(obs.SpanContext{}, 0, "h1"); err == nil {
		t.Fatal("double commit accepted over RPC")
	}
	if _, err := c.PrepareConflict(obs.SpanContext{}, 0, "", 0, 10, 1, 10, 0); err == nil {
		t.Fatal("invalid prepare accepted over RPC")
	}
	if err := c.AbortTraced(obs.SpanContext{}, 0, "whatever"); err != nil {
		t.Fatalf("abort of unknown hold over RPC: %v", err)
	}
}

// TestBrokerOverRPC runs the full 2PC across two real TCP sites.
func TestBrokerOverRPC(t *testing.T) {
	a := startSite(t, "site-a", 4)
	b := startSite(t, "site-b", 4)
	broker, err := grid.NewBroker(grid.BrokerConfig{Strategy: grid.LoadBalance{}}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := broker.CoAllocate(0, grid.Request{ID: 1, Start: 0, Duration: period.Hour, Servers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.TotalServers() != 6 || len(alloc.Shares) != 2 {
		t.Fatalf("alloc = %+v", alloc)
	}
	// The committed reservations are visible through fresh probes.
	ra, _ := a.ProbeTraced(obs.SpanContext{}, 0, alloc.Start, alloc.End)
	rb, _ := b.ProbeTraced(obs.SpanContext{}, 0, alloc.Start, alloc.End)
	if ra.Available+rb.Available != 2 {
		t.Fatalf("remaining capacity = %d + %d, want 2 total", ra.Available, rb.Available)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("tcp", "127.0.0.1:1"); err == nil {
		t.Fatal("dial to dead port succeeded")
	}
}

func TestClientSurvivesServerRestartError(t *testing.T) {
	site, err := grid.NewSite("flaky", core.Config{Servers: 2, SlotSize: 900, Slots: 96}, 0)
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
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	c, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	<-done // Serve returns after Close
	// The established connection keeps working (its goroutine survives the
	// listener) …
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, 100); err != nil {
		t.Fatalf("probe over established connection: %v", err)
	}
	// … but new brokers can no longer join.
	if _, err := Dial("tcp", l.Addr().String()); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
}

// PreVersionInfoReply is InfoReply as a site binary that predates the
// protocol version field encodes it; a client decodes its Proto as 0.
type PreVersionInfoReply struct {
	Name    string
	Servers int
}

// preVersionSite answers the Info handshake like such a binary.
type preVersionSite struct{}

func (preVersionSite) Info(_ InfoArgs, reply *PreVersionInfoReply) error {
	reply.Name, reply.Servers = "pre-version", 4
	return nil
}

// skewedSite answers the Info handshake with another protocol version.
type skewedSite struct{ proto int }

func (s skewedSite) Info(_ InfoArgs, reply *InfoReply) error {
	reply.Name, reply.Servers, reply.Proto = "skewed", 4, s.proto
	return nil
}

// TestDialRejectsProtocolMismatch pins the dial-time version check: a site
// reporting no protocol version or a different one fails DialConfig with
// ErrProtocol naming both versions, and the client closes its socket.
func TestDialRejectsProtocolMismatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stub  any
		proto int
	}{
		{"pre-version", preVersionSite{}, 0},
		{"skewed", skewedSite{proto: ProtocolVersion + 1}, ProtocolVersion + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := rpc.NewServer()
			if err := srv.RegisterName(ServiceName, tc.stub); err != nil {
				t.Fatal(err)
			}
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			served := make(chan struct{})
			go func() {
				defer close(served)
				conn, err := l.Accept()
				if err != nil {
					return
				}
				srv.ServeConn(conn) // returns once the client closes its end
			}()

			_, err = DialConfig("tcp", l.Addr().String(), ClientConfig{DialTimeout: time.Second, CallTimeout: 5 * time.Second})
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("dial = %v, want ErrProtocol", err)
			}
			for _, want := range []string{fmt.Sprintf("speaks version %d", tc.proto), fmt.Sprintf("client speaks %d", ProtocolVersion)} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("dial error %q does not name %q", err, want)
				}
			}
			select {
			case <-served:
			case <-time.After(5 * time.Second):
				t.Fatal("client kept its socket open after the rejected handshake")
			}
		})
	}
}
