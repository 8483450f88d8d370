// Command gridd runs one grid site: a pool of servers managed by the online
// co-allocation scheduler, exposed to brokers over net/rpc with the
// prepare/commit/abort protocol of internal/grid.
//
//	gridd -name site-a -listen 127.0.0.1:7001 -servers 64
//
// -backend selects the availability index the scheduler answers from: the
// default 2-D tree ("dtree") or the flat sorted-slot backend ("flat"). Both
// honor the same contract (DESIGN.md §15); snapshots and WALs record which
// backend wrote them and restore onto the same one.
//
// With -wal the site journals every state mutation to a write-ahead log
// before acknowledging it, checkpoints periodically (and on shutdown), and
// recovers its exact pre-crash state at startup: latest checkpoint, replay
// of the records after it, and fsck-style repair of a torn tail left by a
// crash mid-append. -wal-sync picks the fsync policy (always, interval,
// none) and -checkpoint-every the auto-checkpoint cadence.
//
// With -snapshot the site persists its full state (reservations, pending
// holds, protocol counters) to the given file on SIGINT/SIGTERM and
// restores from it at startup, so a clean restart loses nothing: holds whose
// leases lapsed while the daemon was down expire on the first operation,
// exactly as if it had stayed up. Unlike -wal it offers no crash safety
// between shutdowns.
//
// High availability: -replicas streams the WAL to standby gridd processes
// (started with -standby) and -ack-mode=semisync withholds acknowledgments
// until -ack-replicas standbys have persisted the batch. A standby serves
// probes and the replication service but refuses 2PC mutations until it is
// promoted (gridctl promote, or automatically by a broker whose breaker for
// the primary sticks open). Both roles require -wal. Start standbys before
// the primary: the primary dials each -replicas address at boot.
//
// Probe, range, and prepare replies carry the site's availability epoch so
// caching brokers can reuse answers until the site mutates. The site also
// serves the epoch watch long-poll (brokers subscribe once and hear every
// epoch bump the moment it publishes) and the batched ladder probe. A
// prepare refused for capacity at an epoch newer than the one the caller
// probed is answered as a typed conflict so multi-broker federations can
// retry the contended site in place. The site reports its wire protocol
// version in the Info handshake every broker makes at dial, and a broker
// built for another version refuses to connect.
//
// With -debug the daemon also serves observability endpoints over HTTP:
// /metrics (Prometheus text; ?format=json for expvar-style), /healthz,
// /statusz, and the standard /debug/pprof/ profiles. -trace additionally
// logs every scheduling and 2PC decision as a structured JSON event on
// stderr.
//
// Pair it with cmd/gridctl or examples/multisite.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"coalloc/internal/calendar"
	"coalloc/internal/core"
	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
	"coalloc/internal/replica"
	"coalloc/internal/wal"
	"coalloc/internal/wire"
)

// shutdownGrace bounds how long a SIGINT waits for in-flight RPCs before
// force-closing their connections.
const shutdownGrace = 5 * time.Second

func main() {
	var (
		name         = flag.String("name", "site", "site name (must be unique within a federation)")
		listen       = flag.String("listen", "127.0.0.1:7001", "listen address")
		servers      = flag.Int("servers", 64, "number of servers at this site")
		backend      = flag.String("backend", "", "availability backend: "+strings.Join(calendar.Backends(), ", ")+" (empty: "+calendar.DefaultBackend+")")
		tauMin       = flag.Int("tau", 15, "slot size tau in minutes")
		horizonHours = flag.Int("horizon", 168, "scheduling horizon in hours")
		now          = flag.Int64("now", 0, "initial simulation time in seconds")
		snapshot     = flag.String("snapshot", "", "state file: restored at startup, written on shutdown")
		walDir       = flag.String("wal", "", "write-ahead log directory: crash-safe durability (recover on boot, journal every mutation)")
		walSync      = flag.String("wal-sync", "always", "WAL fsync policy: always, interval, or none")
		walSyncEvery = flag.Duration("wal-sync-every", 100*time.Millisecond, "fsync cadence for -wal-sync=interval")
		ckptEvery    = flag.Duration("checkpoint-every", 5*time.Minute, "auto-checkpoint cadence with -wal (0 disables)")
		idleTimeout  = flag.Duration("idle-timeout", 0, "drop client connections idle longer than this (0 disables; reclaims sockets from half-dead brokers)")
		standby      = flag.Bool("standby", false, "boot as a standby replica: serve reads and the replication stream, refuse 2PC mutations until promoted (requires -wal)")
		replicas     = flag.String("replicas", "", "comma-separated standby replication addresses to stream the WAL to (requires -wal)")
		ackMode      = flag.String("ack-mode", "async", "replication acknowledgment mode: async or semisync")
		ackReplicas  = flag.Int("ack-replicas", 1, "standbys that must persist a batch before a semisync acknowledgment")
		ackTimeout   = flag.Duration("ack-timeout", replica.DefaultAckTimeout, "semisync wait bound before degrading to async (negative: never degrade)")
		debugAddr    = flag.String("debug", "", "HTTP listen address for /metrics, /healthz, /statusz, /debug/traces, /debug/pprof (disabled when empty)")
		trace        = flag.Bool("trace", false, "log scheduling and 2PC events as JSON on stderr")
		traceCap     = flag.Int("trace-capacity", obs.DefaultRecorderCapacity, "flight recorder capacity in traces (the recorder is always on; this bounds its memory)")
	)
	flag.Parse()

	var tracer obs.Tracer
	if *trace {
		tracer = obs.NewSlogTracer(slog.New(slog.NewJSONHandler(os.Stderr, nil)))
	}
	var reg *obs.Registry
	if *debugAddr != "" || tracer != nil {
		reg = obs.Default()
	}

	if (*standby || *replicas != "") && *walDir == "" {
		fmt.Fprintln(os.Stderr, "gridd: -standby and -replicas require -wal (replication streams the write-ahead log)")
		os.Exit(1)
	}
	if *standby && *replicas != "" {
		fmt.Fprintln(os.Stderr, "gridd: -standby and -replicas are mutually exclusive (a node is a primary or a standby, not both)")
		os.Exit(1)
	}

	fresh := func() (*grid.Site, error) {
		return loadOrCreateSite(*snapshot, *name, *backend, *servers, *tauMin, *horizonHours, *now)
	}
	var (
		site *grid.Site
		wlog *wal.Log
		sb   *replica.Standby
		prim *replica.Primary
		err  error
	)
	switch {
	case *standby:
		sb, err = bootStandby(*walDir, *walSync, *walSyncEvery, reg, fresh)
		if err == nil {
			site = sb.Site()
		}
	case *walDir != "":
		site, wlog, err = bootFromWAL(*walDir, *walSync, *walSyncEvery, reg, fresh)
	default:
		site, err = fresh()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridd:", err)
		os.Exit(1)
	}

	// The flight recorder is always on: traced requests cost one ring slot
	// each, and after an incident /debug/traces already holds the story.
	recorder := obs.NewRecorder(obs.RecorderConfig{Capacity: *traceCap})
	site.SetRecorder(recorder)

	if *replicas != "" {
		prim, err = startReplication(site, wlog, *walDir, *replicas, *ackMode, *ackReplicas, *ackTimeout, reg, recorder)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridd:", err)
			os.Exit(1)
		}
	}

	srv, err := wire.NewServer(site)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridd:", err)
		os.Exit(1)
	}
	if sb != nil {
		// The replication service stays enabled even after a promotion: a
		// deposed primary that reconnects must be told it is fenced.
		if err := srv.EnableReplication(sb); err != nil {
			fmt.Fprintln(os.Stderr, "gridd:", err)
			os.Exit(1)
		}
	}
	if prim != nil {
		// A primary answers status on the same service name, so `gridctl
		// replicas` can ask any node who it is and how far behind its
		// standbys are.
		if err := srv.EnableReplicationStatus(prim); err != nil {
			fmt.Fprintln(os.Stderr, "gridd:", err)
			os.Exit(1)
		}
	}
	srv.IdleTimeout = *idleTimeout
	if reg != nil {
		site.Instrument(reg, tracer)
		srv.Instrument(reg)
		if *debugAddr != "" {
			dl, err := net.Listen("tcp", *debugAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gridd:", err)
				os.Exit(1)
			}
			go http.Serve(dl, debugMux(site, reg))
			fmt.Printf("gridd: debug endpoints on http://%s/\n", dl.Addr())
		}
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridd:", err)
		os.Exit(1)
	}
	role := ""
	switch {
	case sb != nil && sb.Promoted():
		role = " [promoted primary]"
	case sb != nil:
		role = " [standby]"
	case prim != nil:
		role = " [replicating primary]"
	}
	fmt.Printf("gridd: site %q with %d servers listening on %s%s\n", site.Name(), site.Servers(), l.Addr(), role)

	// On a standby the checkpoint must go through the replica layer: it
	// serializes against the apply stream so the snapshot always matches the
	// log position it covers.
	ckptFn := site.Checkpoint
	if sb != nil {
		ckptFn = sb.Checkpoint
	}
	stopCkpt := make(chan struct{})
	if (wlog != nil || sb != nil) && *ckptEvery > 0 {
		go autoCheckpoint(ckptFn, *ckptEvery, stopCkpt)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(os.Stderr, "gridd:", err)
			os.Exit(1)
		}
	case <-sig:
		// Stop accepting and drain in-flight RPCs before touching site
		// state: snapshotting while handlers still run could persist a
		// half-applied hold and lose the late calls' effects.
		if err := srv.Shutdown(shutdownGrace); err != nil && !errors.Is(err, net.ErrClosed) {
			fmt.Fprintln(os.Stderr, "gridd: shutdown:", err)
		}
		close(stopCkpt)
		if wlog != nil || sb != nil {
			// A final checkpoint bounds the next boot's replay to zero. On a
			// fenced zombie it fails — that is correct, a fenced log is
			// sealed evidence, not state to roll forward.
			if err := ckptFn(); err != nil {
				fmt.Fprintln(os.Stderr, "gridd: final checkpoint:", err)
			}
		}
		if prim != nil {
			prim.Close()
		}
		if wlog != nil {
			if err := wlog.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "gridd: wal close:", err)
			}
		}
		if sb != nil {
			if err := sb.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "gridd: wal close:", err)
			}
		}
		if *snapshot != "" {
			if err := saveSite(*snapshot, site); err != nil {
				fmt.Fprintln(os.Stderr, "gridd: snapshot:", err)
				os.Exit(1)
			}
			fmt.Printf("gridd: state saved to %s\n", *snapshot)
		}
	}
}

// bootFromWAL opens the write-ahead log, reconstructs the site from its
// latest checkpoint plus journal replay (falling back to fresh for a clean
// boot), prints an fsck-style report, and attaches the log for journaling.
func bootFromWAL(dir, syncFlag string, syncEvery time.Duration, reg *obs.Registry, fresh func() (*grid.Site, error)) (*grid.Site, *wal.Log, error) {
	policy, err := wal.ParseSyncPolicy(syncFlag)
	if err != nil {
		return nil, nil, err
	}
	wlog, rec, err := wal.Open(dir, wal.Options{
		Sync:      policy,
		SyncEvery: syncEvery,
		Metrics:   wal.NewMetrics(reg),
	})
	if err != nil {
		return nil, nil, err
	}
	if rec.TornTail != nil {
		fmt.Printf("gridd: wal: %s\n", rec.TornTail)
	}
	site, replayed, err := grid.RecoverSite(rec.Checkpoint, rec.Records, fresh)
	if err != nil {
		wlog.Close()
		return nil, nil, err
	}
	switch {
	case rec.Checkpoint == nil && replayed == 0:
		fmt.Printf("gridd: wal: clean boot (empty log in %s)\n", dir)
	case rec.Checkpoint == nil:
		fmt.Printf("gridd: wal: recovered by replaying %d records (no checkpoint)\n", replayed)
	default:
		fmt.Printf("gridd: wal: recovered from checkpoint (lsn %d) + %d replayed records\n",
			rec.CheckpointLSN, replayed)
	}
	site.AttachWAL(wlog)
	return site, wlog, nil
}

// bootStandby recovers (or freshly creates) a standby replica in dir. A
// node that was promoted before a restart boots straight back into the
// primary role; a node whose log was sealed by fencing refuses to boot.
func bootStandby(dir, syncFlag string, syncEvery time.Duration, reg *obs.Registry, fresh func() (*grid.Site, error)) (*replica.Standby, error) {
	policy, err := wal.ParseSyncPolicy(syncFlag)
	if err != nil {
		return nil, err
	}
	sb, err := replica.NewStandby(replica.StandbyConfig{
		Dir:      dir,
		WAL:      wal.Options{Sync: policy, SyncEvery: syncEvery, Metrics: wal.NewMetrics(reg)},
		Fresh:    fresh,
		Registry: reg,
	})
	if err != nil {
		return nil, err
	}
	role := "standby"
	if sb.Promoted() {
		role = "promoted primary"
	}
	fmt.Printf("gridd: wal: replica boot as %s (incarnation %d)\n", role, sb.Incarnation())
	return sb, nil
}

// startReplication layers the replication primary over a WAL-backed site
// and dials every standby. Boot fails if a standby is unreachable — start
// standbys first; once streaming, the senders reconnect on their own.
func startReplication(site *grid.Site, wlog *wal.Log, dir, addrs, ackFlag string, ackReplicas int, ackTimeout time.Duration, reg *obs.Registry, rec *obs.Recorder) (*replica.Primary, error) {
	mode, err := replica.ParseAckMode(ackFlag)
	if err != nil {
		return nil, err
	}
	prim, err := replica.NewPrimary(replica.PrimaryConfig{
		Site:        site,
		Log:         wlog,
		Dir:         dir,
		Mode:        mode,
		AckReplicas: ackReplicas,
		AckTimeout:  ackTimeout,
		Registry:    reg,
		Recorder:    rec,
	})
	if err != nil {
		return nil, err
	}
	for _, addr := range strings.Split(addrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		rc, err := wire.DialReplica("tcp", addr, wire.ClientConfig{
			DialTimeout: 5 * time.Second,
			CallTimeout: 30 * time.Second,
		})
		if err != nil {
			prim.Close()
			return nil, err
		}
		if err := prim.AddReplica(addr, rc); err != nil {
			rc.Close()
			prim.Close()
			return nil, err
		}
	}
	fmt.Printf("gridd: replicating to %s (%s acknowledgments)\n", addrs, mode)
	return prim, nil
}

// autoCheckpoint periodically bounds replay time by cutting a checkpoint.
func autoCheckpoint(ckpt func() error, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := ckpt(); err != nil {
				fmt.Fprintln(os.Stderr, "gridd: auto-checkpoint:", err)
			}
		case <-stop:
			return
		}
	}
}

func loadOrCreateSite(path, name, backend string, servers, tauMin, horizonHours int, now int64) (*grid.Site, error) {
	if path != "" {
		f, err := os.Open(path)
		switch {
		case err == nil:
			defer f.Close()
			// A snapshot carries its own backend name; -backend only picks the
			// index for a site built from scratch.
			site, err := grid.RestoreSite(f)
			if err != nil {
				return nil, err
			}
			fmt.Printf("gridd: restored site %q from %s\n", site.Name(), path)
			return site, nil
		case !os.IsNotExist(err):
			return nil, err
		}
	}
	tau := period.Duration(tauMin) * period.Minute
	return grid.NewSite(name, core.Config{
		Servers:  servers,
		Backend:  backend,
		SlotSize: tau,
		Slots:    int(period.Duration(horizonHours) * period.Hour / tau),
	}, period.Time(now))
}

// saveSite writes the site snapshot with full crash discipline: the temp
// file is fsynced before the rename and the parent directory after it, so a
// power loss at any instant leaves either the old state file or the new one
// — never a torn or missing one.
func saveSite(path string, site *grid.Site) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := site.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
