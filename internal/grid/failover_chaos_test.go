// Chaos failover scenario: a replicated site's primary is cut off from the
// broker mid-workload; the broker's breaker opens, the standby is promoted
// without operator action, and the workload continues against the promoted
// node under the same site name. Afterwards the suite proves the hard
// invariants: no acknowledged hold is lost across the failover, the
// promoted state is byte-identical to a clean replay of the standby's WAL,
// and the deposed primary is fenced the moment it tries to stream again.
// External test package: it wires grid together with wire and replica,
// both of which import grid.
package grid_test

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"
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

const haSite = "ha"

func haFresh() (*grid.Site, error) {
	return grid.NewSite(haSite, core.Config{
		Servers:  8,
		SlotSize: 15 * period.Minute,
		Slots:    96,
	}, 0)
}

// haCluster is the full high-availability fixture: a primary behind a
// fault proxy, a standby serving both the site RPCs and the replication
// stream, and the broker-side clients for each.
type haCluster struct {
	pdir, sdir string

	primarySite *grid.Site
	primary     *replica.Primary
	primaryAddr string
	plog        *wal.Log
	proxy       *faultnet.Proxy
	primaryCli  *wire.Client

	standby    *replica.Standby
	standbyCli *wire.Client
	promoter   *wire.ReplicaClient

	fc *grid.FailoverConn
}

func startHACluster(t *testing.T) *haCluster {
	t.Helper()
	c := &haCluster{pdir: t.TempDir(), sdir: t.TempDir()}

	// Standby first: the primary dials its replication service at boot.
	var err error
	c.standby, err = replica.NewStandby(replica.StandbyConfig{
		Dir:   c.sdir,
		WAL:   wal.Options{SegmentSize: 4096, Sync: wal.SyncAlways},
		Fresh: haFresh,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.standby.Close() })
	ssrv, err := wire.NewServer(c.standby.Site())
	if err != nil {
		t.Fatal(err)
	}
	if err := ssrv.EnableReplication(c.standby); err != nil {
		t.Fatal(err)
	}
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ssrv.Serve(sl)
	t.Cleanup(func() { ssrv.Close() })

	// Primary: recovered site + WAL wrapped by the replication layer,
	// semi-sync with an unbounded ack wait so an acknowledged hold is BY
	// CONSTRUCTION on the standby — the zero-loss assertion is then exact.
	var rec *wal.Recovery
	c.plog, rec, err = wal.Open(c.pdir, wal.Options{SegmentSize: 4096, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.plog.Close() })
	c.primarySite, _, err = grid.RecoverSite(rec.Checkpoint, rec.Records, haFresh)
	if err != nil {
		t.Fatal(err)
	}
	c.primary, err = replica.NewPrimary(replica.PrimaryConfig{
		Site:       c.primarySite,
		Log:        c.plog,
		Dir:        c.pdir,
		Mode:       replica.SemiSync,
		AckTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.primary.Close)
	streamCli, err := wire.DialReplica("tcp", sl.Addr().String(), wire.ClientConfig{
		DialTimeout: 2 * time.Second, CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { streamCli.Close() })
	if err := c.primary.AddReplica("sb1", streamCli); err != nil {
		t.Fatal(err)
	}

	psrv, err := wire.NewServer(c.primarySite)
	if err != nil {
		t.Fatal(err)
	}
	// Same registration gridd performs for a primary: status-only
	// replication service so `gridctl replicas` works against either role.
	if err := psrv.EnableReplicationStatus(c.primary); err != nil {
		t.Fatal(err)
	}
	pl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.primaryAddr = pl.Addr().String()
	go psrv.Serve(pl)
	t.Cleanup(func() { psrv.Close() })
	c.proxy, err = faultnet.Listen(pl.Addr().String(), 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.proxy.Close() })

	cfg := wire.ClientConfig{DialTimeout: 500 * time.Millisecond, CallTimeout: 300 * time.Millisecond}
	c.primaryCli, err = wire.DialConfig("tcp", c.proxy.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.primaryCli.Close() })
	c.standbyCli, err = wire.DialConfig("tcp", sl.Addr().String(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.standbyCli.Close() })
	c.promoter, err = wire.DialReplica("tcp", sl.Addr().String(), wire.ClientConfig{
		DialTimeout: 2 * time.Second, CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.promoter.Close() })

	c.fc = grid.NewFailoverConn(c.primaryCli,
		grid.FailoverTarget{Conn: c.standbyCli, Promoter: c.promoter})
	return c
}

// TestSemiSyncReplicaStatusBothRoles drives the RPC behind `gridctl
// replicas` against both roles: the standby's full replication service and
// the primary's status-only service answer the same Status call.
func TestSemiSyncReplicaStatusBothRoles(t *testing.T) {
	c := startHACluster(t)

	st, err := c.promoter.ReplicaStatus()
	if err != nil {
		t.Fatalf("standby status: %v", err)
	}
	if st.Role != "standby" {
		t.Fatalf("standby role = %q, want standby", st.Role)
	}

	pc, err := wire.DialReplica("tcp", c.primaryAddr, wire.ClientConfig{
		DialTimeout: 2 * time.Second, CallTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	pst, err := pc.ReplicaStatus()
	if err != nil {
		t.Fatalf("primary status: %v", err)
	}
	if pst.Role != "primary" {
		t.Fatalf("primary role = %q, want primary", pst.Role)
	}
	if len(pst.Replicas) != 1 || pst.Replicas[0].Name != "sb1" {
		t.Fatalf("primary replicas = %+v, want one entry named sb1", pst.Replicas)
	}
	// The stream and promotion methods must NOT exist on a primary: a
	// failover that targets the wrong role should fail loudly, not fence.
	if _, _, err := pc.PromoteReplica("test"); err == nil {
		t.Fatal("promote against a primary unexpectedly succeeded")
	}
}

// TestChaosFailover is the acceptance scenario of the HA subsystem.
func TestChaosFailover(t *testing.T) {
	c := startHACluster(t)
	reg := obs.NewRegistry()
	br, err := grid.NewBroker(grid.BrokerConfig{
		Strategy:         grid.Greedy{},
		Lease:            5 * period.Minute,
		MaxAttempts:      1,
		CommitRetries:    2,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		ProbeCache:       true,
		Registry:         reg,
	}, c.fc)
	if err != nil {
		t.Fatal(err)
	}

	var grantedIDs []string
	grant := func(i int) error {
		start := period.Time(int64(i) * int64(period.Hour))
		alloc, err := br.CoAllocate(0, grid.Request{
			ID: int64(i), Start: start, Duration: 30 * period.Minute, Servers: 2,
		})
		if err != nil {
			return err
		}
		grantedIDs = append(grantedIDs, alloc.HoldID)
		return nil
	}

	// Phase 1: healthy workload against the primary; every grant is
	// semi-sync acknowledged, so the standby holds all of them.
	for i := 0; i < 8; i++ {
		if err := grant(i); err != nil {
			t.Fatalf("healthy grant %d: %v", i, err)
		}
	}
	preFailoverGrants := len(grantedIDs)

	// Phase 2: the primary drops off the network mid-workload. Requests
	// fail until the breaker opens and the broker promotes the standby —
	// with no operator in the loop.
	c.proxy.SetMode(faultnet.Hang)
	deadline := time.Now().Add(30 * time.Second)
	i := 8
	for !c.standby.Promoted() {
		if time.Now().After(deadline) {
			t.Fatal("standby never promoted")
		}
		grant(i) // expected to fail while the breaker counts down
		i++
	}
	if got := reg.Counter("broker.site.failovers").Value(); got != 1 {
		t.Fatalf("failovers counter = %d, want 1", got)
	}

	// Phase 3: the workload continues against the promoted standby under
	// the same site name.
	postFailoverGrants := 0
	for n := 0; n < 8; n++ {
		if err := grant(i); err != nil {
			t.Fatalf("post-failover grant %d: %v", i, err)
		}
		i++
		postFailoverGrants++
	}
	if postFailoverGrants == 0 || len(grantedIDs) <= preFailoverGrants {
		t.Fatal("no grants landed after the failover")
	}

	// Invariant 1: zero acknowledged holds lost. Every grant the broker
	// ever saw acknowledged — before or after the failover — is committed
	// on the promoted node.
	promoted := c.standby.Site()
	for _, id := range grantedIDs {
		if _, committed := promoted.LookupHold(id); !committed {
			t.Errorf("acked hold %s lost across the failover", id)
		}
	}

	// Invariant 2: the deposed primary is fenced the moment it streams
	// again. Drive one direct mutation into the zombie: its journal append
	// replicates, the promoted standby refuses it, and the zombie fences
	// itself and seals its log. The semi-sync waiter must fail, not ack.
	if _, err := c.primarySite.Prepare(0, "zombie-hold", 0, period.Time(30*period.Minute), 1, period.Hour); err == nil {
		t.Fatal("zombie primary acknowledged a mutation after the failover")
	}
	fenceDeadline := time.Now().Add(10 * time.Second)
	for {
		if _, fenced := c.primarySite.Fenced(); fenced {
			break
		}
		if time.Now().After(fenceDeadline) {
			t.Fatal("deposed primary never fenced")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, sealed := c.plog.SealedInfo(); !sealed {
		t.Fatal("deposed primary's log not sealed")
	}
	// And a broker that heals its network path to the zombie still cannot
	// use it: in-flight 2PC traffic is refused.
	c.proxy.Heal()
	if _, err := c.primaryCli.PrepareConflict(obs.SpanContext{}, 0, "late-2pc", 0, period.Time(30*period.Minute), 1, period.Hour, 0); !grid.IsFencedErr(err) {
		t.Fatalf("zombie accepted 2PC traffic after fencing: %v", err)
	}

	// Invariant 3: the promoted state is byte-identical to a clean replay
	// of the standby's WAL. Quiesce, copy the directory, recover the copy
	// from scratch, and compare snapshots.
	c.primary.Close()
	copyDir := t.TempDir()
	copyWALDir(t, c.sdir, copyDir)
	relog, recInfo, err := wal.Open(copyDir, wal.Options{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer relog.Close()
	replayed, _, err := grid.RecoverSite(recInfo.Checkpoint, recInfo.Records, haFresh)
	if err != nil {
		t.Fatal(err)
	}
	var live, clean bytes.Buffer
	if err := promoted.Snapshot(&live); err != nil {
		t.Fatal(err)
	}
	if err := replayed.Snapshot(&clean); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), clean.Bytes()) {
		t.Fatalf("promoted state (%d bytes) diverges from clean WAL replay (%d bytes)",
			live.Len(), clean.Len())
	}
}

// copyWALDir copies every regular file of src into dst.
func copyWALDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosFailoverStorm exercises repeated failover triggers under a
// flapping network: the breaker may open more than once, but only one
// promotion ever happens (the standby pool holds one candidate) and the
// federation keeps serving from the promoted node.
func TestChaosFailoverStorm(t *testing.T) {
	c := startHACluster(t)
	reg := obs.NewRegistry()
	br, err := grid.NewBroker(grid.BrokerConfig{
		Strategy:         grid.Greedy{},
		Lease:            5 * period.Minute,
		MaxAttempts:      1,
		CommitRetries:    2,
		RetryBackoff:     time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		Registry:         reg,
	}, c.fc)
	if err != nil {
		t.Fatal(err)
	}

	// Flap the primary's network while pushing requests.
	granted := 0
	for i := 0; i < 40; i++ {
		switch i % 10 {
		case 3:
			c.proxy.SetMode(faultnet.Deny)
		case 7:
			c.proxy.Heal()
		}
		start := period.Time(int64(i) * int64(period.Hour))
		if _, err := br.CoAllocate(0, grid.Request{
			ID: int64(i), Start: start, Duration: 30 * period.Minute, Servers: 1,
		}); err == nil {
			granted++
		}
		time.Sleep(5 * time.Millisecond)
	}
	if granted == 0 {
		t.Fatal("storm granted nothing")
	}
	if got := reg.Counter("broker.site.failovers").Value(); got > 1 {
		t.Fatalf("failovers = %d, want at most one promotion", got)
	}
	// However often the breaker flapped, at most one node serves
	// mutations: split-brain is structurally impossible once promoted.
	if c.standby.Promoted() {
		if _, fenced := c.primarySite.Fenced(); !fenced {
			// The zombie fences only when it streams; force one append.
			c.primarySite.Prepare(0, "storm-zombie", 0, period.Time(30*period.Minute), 1, period.Hour)
			fenceDeadline := time.Now().Add(10 * time.Second)
			for {
				if _, fenced := c.primarySite.Fenced(); fenced {
					break
				}
				if time.Now().After(fenceDeadline) {
					t.Fatal("zombie primary never fenced after the storm")
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}
