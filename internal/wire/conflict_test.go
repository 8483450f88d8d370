package wire

// Conflict suite: the conflict classification of Prepare must cross the
// wire as the typed error, and only for a caller that sent the epoch it
// probed at.

import (
	"errors"
	"net/rpc"
	"testing"

	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// stealServers commits a foreign hold directly on the site, moving its
// epoch past anything the client probed.
func stealServers(t *testing.T, site *grid.Site, n int, start, end period.Time) {
	t.Helper()
	if _, err := site.Prepare(0, "thief", start, end, n, period.Hour); err != nil {
		t.Fatalf("steal prepare: %v", err)
	}
	if err := site.Commit(0, "thief"); err != nil {
		t.Fatalf("steal commit: %v", err)
	}
}

// TestConflictCrossesWireTyped pins the classification end to end: a
// capacity refusal at a moved epoch arrives at the client as the typed
// *grid.ConflictError carrying the site's current epoch, while the same
// refusal without a probed epoch stays a plain error and leaves no hold.
func TestConflictCrossesWireTyped(t *testing.T) {
	site, c := serveSite(t, "conflict-wire", 4)
	start, end := period.Time(period.Hour), period.Time(2*period.Hour)

	r, err := c.ProbeTraced(obs.SpanContext{}, 0, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch == 0 {
		t.Fatal("modern server reports no epoch")
	}
	stealServers(t, site, 3, start, end)

	_, err = c.PrepareConflict(obs.SpanContext{}, 0, "h1", start, end, 4, period.Hour, r.Epoch)
	if err == nil {
		t.Fatal("prepare of 4 servers with 1 free succeeded over the wire")
	}
	var ce *grid.ConflictError
	if !errors.As(err, &ce) || !errors.Is(err, grid.ErrConflict) {
		t.Fatalf("wire refusal not typed as conflict: %v", err)
	}
	if ce.Site != "conflict-wire" || ce.Epoch != site.Epoch() {
		t.Fatalf("conflict carries %q epoch %d, want %q %d", ce.Site, ce.Epoch, "conflict-wire", site.Epoch())
	}

	// The same call without a probed epoch gets a plain error — never the
	// nil-error Conflict reply — and no classification.
	if _, err := c.PrepareConflict(obs.SpanContext{}, 0, "h2", start, end, 4, period.Hour, 0); err == nil || errors.Is(err, grid.ErrConflict) {
		t.Fatalf("epochless prepare classified as conflict: %v", err)
	}
	if site.PendingHolds() != 0 {
		t.Fatalf("refused prepares left %d holds", site.PendingHolds())
	}
}

// TestLegacyClientNeverSeesConflictReply pins the dangerous direction at
// the raw RPC layer: a caller that sends no probed epoch prepares into a
// conflict and must receive a plain RPC error — never the nil-error reply
// whose Servers field it would read as an empty successful grant. Gob omits
// a zero field, so this request is the same bytes a client without
// ProbedEpoch in its schema would send.
func TestLegacyClientNeverSeesConflictReply(t *testing.T) {
	site, _ := serveSite(t, "conflict-old-client", 4)
	addr, _ := siteAddrs.Load("conflict-old-client")
	rc, err := rpc.Dial("tcp", addr.(string))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })
	start, end := period.Time(period.Hour), period.Time(2*period.Hour)
	stealServers(t, site, 3, start, end)

	var reply PrepareReply
	err = rc.Call(ServiceName+".Prepare", PrepareArgs{
		Now: 0, HoldID: "h1", Start: start, End: end, Servers: 4, Lease: period.Hour,
	}, &reply)
	if err == nil {
		t.Fatalf("epochless client got a nil-error prepare refusal (servers %v, conflict %v) — it would treat this as a grant", reply.Servers, reply.Conflict)
	}
	if site.PendingHolds() != 0 {
		t.Fatalf("refused prepare left %d holds", site.PendingHolds())
	}
}
