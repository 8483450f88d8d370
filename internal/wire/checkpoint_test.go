package wire

import (
	"net"
	"strings"
	"testing"

	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/wal"
)

func TestCheckpointOverRPCWithoutWAL(t *testing.T) {
	c := startSite(t, "remote-nockpt", 4)
	err := c.Checkpoint()
	if err == nil {
		t.Fatal("Checkpoint on a site without a WAL succeeded")
	}
	// net/rpc flattens errors to strings; match the sentinel's text.
	if !strings.Contains(err.Error(), "no write-ahead log") {
		t.Fatalf("Checkpoint error = %v, want ErrNoWAL text", err)
	}
}

func TestCheckpointOverRPC(t *testing.T) {
	site, err := grid.NewSite("remote-ckpt", core.Config{
		Servers:  4,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wlog, _, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wlog.Close() })
	site.AttachWAL(wlog)

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
	c, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if _, err := c.PrepareConflict(obs.SpanContext{}, 0, "h1", 0, period.Time(period.Hour), 2, period.Hour, 0); err != nil {
		t.Fatal(err)
	}
	before := wlog.NextLSN()
	if before < 2 {
		t.Fatalf("prepare was not journaled (next lsn %d)", before)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// The checkpoint supersedes all journaled records: a reopen recovers
	// from the snapshot alone, with the undecided hold intact.
	wlog.Close()
	relog, rec, err := wal.Open(wlog.Dir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer relog.Close()
	if rec.Checkpoint == nil || len(rec.Records) != 0 {
		t.Fatalf("after checkpoint: ckpt=%v, %d records", rec.Checkpoint != nil, len(rec.Records))
	}
	restored, n, err := grid.RecoverSite(rec.Checkpoint, rec.Records, nil)
	if err != nil || n != 0 {
		t.Fatalf("recover: %d, %v", n, err)
	}
	if restored.PendingHolds() != 1 {
		t.Fatalf("recovered site has %d pending holds, want 1", restored.PendingHolds())
	}
}
