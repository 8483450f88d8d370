package grid

import (
	"fmt"
	"io"
	"log/slog"
	"time"

	"coalloc/internal/calendar"
	"coalloc/internal/core"
	"coalloc/internal/dtree"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// SiteStatus is a point-in-time summary of one site: identity, clock,
// protocol counters, and the embedded scheduler's lifetime statistics. It is
// what /statusz renders, what the Stats RPC returns, and what `gridctl
// stats` prints. All fields are exported so the struct travels over gob.
type SiteStatus struct {
	Name         string
	Servers      int
	Now          period.Time
	HorizonEnd   period.Time
	PendingHolds int

	// 2PC protocol counters.
	Prepared  uint64
	Committed uint64
	Aborted   uint64
	Expired   uint64

	// Embedded scheduler activity.
	Sched       core.Stats
	Ops         uint64 // elementary tree operations (Fig. 7(b) metric)
	Breakdown   calendar.OpsBreakdown
	Utilization float64 // committed fraction of the active window

	// Replication is the site's high-availability state; the zero value
	// (Role == "") means the site does not replicate.
	Replication ReplicationStatus
}

// ReplicaLag is one standby's position as seen by its primary.
type ReplicaLag struct {
	Name          string
	AckedLSN      uint64 // highest LSN the standby persisted
	RecordsBehind uint64 // journal records the standby has not acknowledged
	BytesBehind   uint64 // journal payload bytes the standby has not acknowledged
	Alive         bool   // the stream is connected and flowing
	Err           string // last stream error, empty while healthy
}

// ReplicationStatus summarizes a site's replication role for Stats,
// /statusz, and `gridctl replicas`. Role is "primary", "standby", or
// "fenced"; "" means replication is not configured.
type ReplicationStatus struct {
	Role        string
	Mode        string // "async" or "semi-sync"; primaries only
	Incarnation uint64 // fencing number; bumped by every promotion
	NextLSN     uint64 // local journal head
	AckReplicas int    // semi-sync quorum; primaries only
	Replicas    []ReplicaLag
	// LastFailoverUnix is when this node was promoted (unix seconds);
	// zero when it never was.
	LastFailoverUnix int64
}

// SetReplicationStatus installs the provider of Status()'s replication
// section; internal/replica calls it. fn is invoked outside the site lock
// and must be safe for concurrent use.
func (s *Site) SetReplicationStatus(fn func() ReplicationStatus) {
	s.replStatus.Store(&fn)
}

// WriteText renders the status as aligned key/value lines — the format of
// gridd's /statusz endpoint and of `gridctl stats`.
func (st SiteStatus) WriteText(w io.Writer) error {
	var s, avgAttempts float64
	if st.Sched.Submitted > 0 {
		avgAttempts = float64(st.Sched.TotalAttempts) / float64(st.Sched.Submitted)
	}
	s = st.Utilization * 100
	_, err := fmt.Fprintf(w, `site           %s
servers        %d
now            %d
horizon end    %d
utilization    %.1f%%
pending holds  %d
2pc            prepared=%d committed=%d aborted=%d expired=%d
jobs           submitted=%d accepted=%d rejected=%d released=%d
attempts       total=%d avg/job=%.2f
tree ops       total=%d search=%d update=%d rotate=%d
`,
		st.Name, st.Servers, int64(st.Now), int64(st.HorizonEnd), s,
		st.PendingHolds,
		st.Prepared, st.Committed, st.Aborted, st.Expired,
		st.Sched.Submitted, st.Sched.Accepted, st.Sched.Rejected, st.Sched.Releases,
		st.Sched.TotalAttempts, avgAttempts,
		st.Ops, st.Breakdown.Search, st.Breakdown.Update, st.Breakdown.Rotate)
	if err != nil {
		return err
	}
	return st.Replication.writeText(w)
}

// writeText renders the replication section of WriteText; silent when the
// site does not replicate.
func (r ReplicationStatus) writeText(w io.Writer) error {
	if r.Role == "" {
		return nil
	}
	lastFailover := "-"
	if r.LastFailoverUnix != 0 {
		lastFailover = time.Unix(r.LastFailoverUnix, 0).UTC().Format(time.RFC3339)
	}
	line := fmt.Sprintf("replication    role=%s incarnation=%d next_lsn=%d last_failover=%s",
		r.Role, r.Incarnation, r.NextLSN, lastFailover)
	if r.Mode != "" {
		line += fmt.Sprintf(" mode=%s ack_replicas=%d", r.Mode, r.AckReplicas)
	}
	if _, err := fmt.Fprintln(w, line); err != nil {
		return err
	}
	for _, rep := range r.Replicas {
		state := "up"
		if !rep.Alive {
			state = "down"
		}
		detail := ""
		if rep.Err != "" {
			detail = " err=" + rep.Err
		}
		if _, err := fmt.Fprintf(w, "  replica %-8s %s acked_lsn=%d behind=%d records, %d bytes%s\n",
			rep.Name, state, rep.AckedLSN, rep.RecordsBehind, rep.BytesBehind, detail); err != nil {
			return err
		}
	}
	return nil
}

// Status summarizes the site under its lock. The replication section is
// gathered first, outside the lock: its provider (a replica.Primary or
// Standby) holds its own locks and may consult the site.
func (s *Site) Status() SiteStatus {
	var repl ReplicationStatus
	if fn := s.replStatus.Load(); fn != nil {
		repl = (*fn)()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.sched.Now()
	end := s.sched.HorizonEnd()
	return SiteStatus{
		Name:         s.name,
		Servers:      s.sched.Config().Servers,
		Now:          now,
		HorizonEnd:   end,
		PendingHolds: len(s.holds),
		Prepared:     s.prepared,
		Committed:    s.committed,
		Aborted:      s.aborted,
		Expired:      s.expired,
		Sched:        s.sched.Stats(),
		Ops:          s.sched.Ops(),
		Breakdown:    s.sched.OpsBreakdown(),
		Utilization:  s.sched.Utilization(now, end),
		Replication:  repl,
	}
}

// Instrument installs telemetry on the site: the scheduler gains a
// core.TracingObserver and calendar/tree timing histograms, the site's 2PC
// counters and pending-hold gauge are exported through reg, and prepare/
// commit/abort/expire decisions are emitted as tracer events. Either
// argument may be nil to skip that sink. Call before serving traffic.
func (s *Site) Instrument(reg *obs.Registry, tr obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = tr
	if tr != nil || reg != nil {
		s.sched.SetObserver(core.NewTracingObserver(reg, tr))
	}
	if reg == nil {
		return
	}
	s.sched.SetTimings(
		&calendar.Timings{
			Search: reg.Histogram("calendar.search.latency"),
			Update: reg.Histogram("calendar.update.latency"),
			Rotate: reg.Histogram("calendar.rotate.latency"),
		},
		&dtree.Timings{
			Search:  reg.Histogram("dtree.search.latency"),
			Update:  reg.Histogram("dtree.update.latency"),
			Rebuild: reg.Histogram("dtree.rebuild.latency"),
		},
	)
	reg.Help("calendar.search.latency", "two-phase and range search wall time")
	reg.Help("calendar.update.latency", "allocate/release maintenance wall time")
	reg.Help("calendar.rotate.latency", "slot expiry and horizon extension wall time")
	reg.Func("site.pending_holds", func() float64 { return float64(s.PendingHolds()) })
	reg.Func("site.prepared", func() float64 { p, _, _, _ := s.Stats(); return float64(p) })
	reg.Func("site.committed", func() float64 { _, c, _, _ := s.Stats(); return float64(c) })
	reg.Func("site.aborted", func() float64 { _, _, a, _ := s.Stats(); return float64(a) })
	reg.Func("site.expired", func() float64 { _, _, _, e := s.Stats(); return float64(e) })
	reg.Help("site.pending_holds", "prepared holds awaiting a 2PC decision")
}

// event emits a tracer event if a tracer is installed; callers hold s.mu.
func (s *Site) event(name string, attrs ...slog.Attr) {
	if s.tracer != nil {
		s.tracer.Event(name, attrs...)
	}
}
