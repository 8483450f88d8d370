package grid

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"coalloc/internal/core"
	"coalloc/internal/job"
	"coalloc/internal/period"
)

// Durability. A site holds commitments far into the future — advance
// reservations over the whole scheduling horizon plus prepared-but-undecided
// 2PC holds — so losing state on a crash silently breaks every promised
// co-allocation. With a write-ahead log attached (AttachWAL), the site
// journals every state mutation as an Op record at the moment it applies;
// recovery restores the latest checkpoint (a full Snapshot) and replays the
// records after it (ReplayOp), reconstructing the exact pre-crash state.
//
// The contract is append-before-acknowledge: a mutation is applied in
// memory, journaled, and only then acknowledged to the caller. If the
// journal append fails the mutation is NOT acknowledged and the site poisons
// itself — every later mutation is refused — because memory is now ahead of
// the durable state and only a restart (which recovers the durable prefix)
// can reconcile them. For 2PC this is exactly presumed abort: the broker
// never saw the prepare succeed, times out, and aborts; the recovered site
// has no trace of the hold.
//
// Journaling is staged: each mutation encodes its records into s.staged as
// it applies (stageOpLocked), and the batch leader flushes the whole batch
// with one group commit (flushStagedLocked) before any writer in the batch
// is acknowledged — the same contract, amortized. When the attached log
// supports it (BatchWAL), the flush is a single AppendBatch with one fsync;
// otherwise records are appended one by one, preserving order.

// OpKind enumerates the journaled site mutations.
type OpKind uint8

const (
	// OpPrepare reserves servers under a leased hold (2PC phase 1).
	OpPrepare OpKind = iota + 1
	// OpCommit makes a prepared hold durable (2PC phase 2).
	OpCommit
	// OpAbort releases a prepared hold (2PC phase 2).
	OpAbort
	// OpExpire releases a hold whose lease lapsed with no decision.
	OpExpire
)

// String names the op for reports and traces.
func (k OpKind) String() string {
	switch k {
	case OpPrepare:
		return "prepare"
	case OpCommit:
		return "commit"
	case OpAbort:
		return "abort"
	case OpExpire:
		return "expire"
	}
	return fmt.Sprintf("opkind(%d)", uint8(k))
}

// Op is one journaled site mutation. Alloc and Expires are meaningful for
// OpPrepare only: the record stores the *granted* allocation rather than the
// request, so replay re-commits exactly the servers the scheduler chose and
// never re-runs the (policy-dependent) search.
//
// SchedStats and SchedOps are the post-operation values of the scheduler's
// history-dependent counters; see internal/core/replay.go for why replay
// must reinstate rather than recompute them.
type Op struct {
	Kind    OpKind
	Now     period.Time
	HoldID  string
	Alloc   job.Allocation
	Expires period.Time

	SchedStats core.Stats
	SchedOps   uint64
}

// EncodeOp serializes an op for the journal.
func EncodeOp(op Op) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(op); err != nil {
		return nil, fmt.Errorf("grid: encode op: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeOp deserializes a journal record. Corrupt input yields an error,
// never a panic (framing corruption is already caught by the WAL's
// checksums; this guards the payload layer).
func DecodeOp(b []byte) (Op, error) {
	var op Op
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&op); err != nil {
		return Op{}, fmt.Errorf("grid: decode op: %w", err)
	}
	return op, nil
}

// WAL is the durability surface a site journals through; internal/wal's Log
// satisfies it. Append persists one record and returns its sequence number;
// Checkpoint makes snapshot the new recovery baseline, superseding every
// record appended so far.
type WAL interface {
	Append(record []byte) (lsn uint64, err error)
	Checkpoint(snapshot []byte) error
}

// BatchWAL is the optional group-commit upgrade: AppendBatch persists the
// records in order with a single durability round (one fsync under
// SyncAlways). internal/wal's Log implements it; a WAL that does not is
// driven record by record.
type BatchWAL interface {
	WAL
	AppendBatch(records [][]byte) (lsn uint64, err error)
}

// ErrNoWAL is returned by Checkpoint when the site has no log attached.
var ErrNoWAL = errors.New("grid: no write-ahead log attached")

// AttachWAL installs the site's journal. Call it after recovery (ReplayOp)
// and before serving traffic; mutations from then on are journaled.
func (s *Site) AttachWAL(w WAL) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal = w
}

// walOKLocked reports the sticky journal failure, if any.
func (s *Site) walOKLocked() error {
	if s.wal != nil && s.walErr != nil {
		return fmt.Errorf("grid %s: write-ahead log failed, restart to recover: %w", s.name, s.walErr)
	}
	return nil
}

// stageOpLocked encodes one applied mutation — stamping the post-operation
// scheduler counters — and queues it for the batch's group commit. Only an
// encoding failure poisons here; append failures surface in
// flushStagedLocked.
func (s *Site) stageOpLocked(op Op) error {
	if s.wal == nil {
		return nil
	}
	op.SchedStats = s.sched.Stats()
	op.SchedOps = s.sched.Ops()
	rec, err := EncodeOp(op)
	if err != nil {
		s.walErr = err
		return fmt.Errorf("grid %s: journal %s %q: %w", s.name, op.Kind, op.HoldID, err)
	}
	s.staged = append(s.staged, rec)
	return nil
}

// flushStagedLocked appends the batch's staged records to the journal as
// one group commit. On failure the site is poisoned: the staged mutations
// are already applied in memory but will never be acknowledged, and only a
// restart (recovering the durable prefix) reconciles the two.
func (s *Site) flushStagedLocked() error {
	if len(s.staged) == 0 || s.wal == nil {
		s.staged = nil
		return nil
	}
	recs := s.staged
	s.staged = nil
	var err error
	if bw, ok := s.wal.(BatchWAL); ok && len(recs) > 1 {
		_, err = bw.AppendBatch(recs)
	} else {
		for _, rec := range recs {
			if _, err = s.wal.Append(rec); err != nil {
				break
			}
		}
	}
	if err != nil {
		s.walErr = err
		return fmt.Errorf("grid %s: journal append: %w", s.name, err)
	}
	return nil
}

// Checkpoint writes a full site snapshot into the attached log as the new
// recovery baseline, letting the log truncate every segment the snapshot
// covers. It holds the site lock across snapshot and checkpoint so no
// mutation can slip between them and be wrongly truncated.
func (s *Site) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return ErrNoWAL
	}
	if err := s.walOKLocked(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := s.snapshotLocked(&buf); err != nil {
		return err
	}
	if err := s.wal.Checkpoint(buf.Bytes()); err != nil {
		s.walErr = err
		return fmt.Errorf("grid %s: checkpoint: %w", s.name, err)
	}
	return nil
}

// ReplayOp applies one journaled mutation during recovery, before AttachWAL.
// It mirrors the live code path exactly — same calendar commitment, same
// counter movements — then reinstates the recorded scheduler counters, so a
// recovered site's snapshot is byte-identical to the pre-crash state the
// journal describes. A record that does not apply cleanly means the journal
// and baseline disagree: the error names the op so an operator can fsck.
func (s *Site) ReplayOp(op Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op.Kind {
	case OpPrepare:
		if op.HoldID == "" {
			return fmt.Errorf("grid %s: replay prepare without hold id", s.name)
		}
		if _, dup := s.holds[op.HoldID]; dup {
			return fmt.Errorf("grid %s: replay prepare of duplicate hold %q", s.name, op.HoldID)
		}
		s.sched.Advance(op.Now)
		s.pruneCommittedLocked(op.Now)
		for _, srv := range op.Alloc.Servers {
			if _, err := s.sched.Claim(srv, op.Alloc.Start, op.Alloc.End); err != nil {
				return fmt.Errorf("grid %s: replay prepare %q: %w", s.name, op.HoldID, err)
			}
		}
		s.holds[op.HoldID] = Hold{ID: op.HoldID, Alloc: op.Alloc, Expires: op.Expires}
		s.prepared++
	case OpCommit:
		s.sched.Advance(op.Now)
		s.pruneCommittedLocked(op.Now)
		h, ok := s.holds[op.HoldID]
		if !ok {
			return fmt.Errorf("grid %s: replay commit of unknown hold %q", s.name, op.HoldID)
		}
		delete(s.holds, op.HoldID)
		if h.Alloc.End > op.Now {
			s.committedHolds[op.HoldID] = h
		}
		s.committed++
	case OpAbort:
		s.sched.Advance(op.Now)
		s.pruneCommittedLocked(op.Now)
		if h, ok := s.holds[op.HoldID]; ok {
			delete(s.holds, op.HoldID)
			if err := s.sched.Release(h.Alloc, h.Alloc.Start); err == nil {
				s.aborted++
			}
			break
		}
		h, ok := s.committedHolds[op.HoldID]
		if !ok {
			return fmt.Errorf("grid %s: replay abort of unknown hold %q", s.name, op.HoldID)
		}
		delete(s.committedHolds, op.HoldID)
		if err := s.sched.Release(h.Alloc, op.Now); err == nil {
			s.aborted++
		}
	case OpExpire:
		s.sched.Advance(op.Now)
		s.pruneCommittedLocked(op.Now)
		h, ok := s.holds[op.HoldID]
		if !ok {
			return fmt.Errorf("grid %s: replay expire of unknown hold %q", s.name, op.HoldID)
		}
		delete(s.holds, op.HoldID)
		if err := s.sched.Release(h.Alloc, h.Alloc.Start); err == nil {
			s.expired++
		}
	default:
		return fmt.Errorf("grid %s: replay of unknown op kind %d", s.name, op.Kind)
	}
	s.sched.RestoreStats(op.SchedStats)
	s.sched.SetOps(op.SchedOps)
	s.publishLocked()
	return nil
}

// RecoverSite rebuilds a site from WAL recovery output: the latest
// checkpoint snapshot (nil for none — fresh() then supplies the initial
// site) plus the journal records after it, in order. It returns the site and
// the number of records replayed.
func RecoverSite(checkpoint []byte, records [][]byte, fresh func() (*Site, error)) (*Site, int, error) {
	var (
		s   *Site
		err error
	)
	if checkpoint != nil {
		s, err = RestoreSite(bytes.NewReader(checkpoint))
	} else {
		s, err = fresh()
	}
	if err != nil {
		return nil, 0, err
	}
	for i, rec := range records {
		op, err := DecodeOp(rec)
		if err != nil {
			return nil, i, fmt.Errorf("grid: recover record %d: %w", i+1, err)
		}
		if err := s.ReplayOp(op); err != nil {
			return nil, i, fmt.Errorf("grid: recover record %d: %w", i+1, err)
		}
	}
	return s, len(records), nil
}
