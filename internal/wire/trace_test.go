package wire

import (
	"testing"

	"coalloc/internal/grid"
	"coalloc/internal/obs"
	"coalloc/internal/period"
)

// Trace suite: the TraceID/SpanID request fields carry the broker's span
// context to the site, and the zero value — an untraced call — must make
// the site record nothing.

// startTracedSite serves a site with a flight recorder attached and
// returns the site (for recorder inspection) with a connected client.
func startTracedSite(t *testing.T, name string, servers int) (*grid.Site, *Client) {
	t.Helper()
	site, c := serveSite(t, name, servers)
	site.SetRecorder(obs.NewRecorder(obs.RecorderConfig{}))
	return site, c
}

// TestUntracedModernClientRecordsNothing pins the zero context: a client
// calling with a zero span context sends zero trace fields, and the site
// must not record for it.
func TestUntracedModernClientRecordsNothing(t *testing.T) {
	site, c := startTracedSite(t, "new-site-untraced", 4)
	w := period.Time(period.Hour)
	if _, err := c.ProbeTraced(obs.SpanContext{}, 0, 0, w); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PrepareConflict(obs.SpanContext{}, 0, "h-plain", 0, w, 1, 5*period.Minute, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.AbortTraced(obs.SpanContext{}, 0, "h-plain"); err != nil {
		t.Fatal(err)
	}
	if n := site.Recorder().Len(); n != 0 {
		t.Fatalf("site recorded %d traces for untraced calls, want 0", n)
	}
}

// TestCrossProcessTracePropagation is the end-to-end acceptance test for
// span propagation: a broker co-allocating over TCP stamps its span context
// on every RPC, and the site's flight recorder ends up holding remote
// fragments that share the broker's TraceID and parent under spans the
// broker actually recorded — including the site-internal queue-wait span.
func TestCrossProcessTracePropagation(t *testing.T) {
	site, c := startTracedSite(t, "traced-e2e", 8)
	br, err := grid.NewBroker(grid.BrokerConfig{BreakerThreshold: -1}, c)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := br.CoAllocate(0, grid.Request{ID: 7, Start: 0, Duration: period.Hour, Servers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if alloc.TotalServers() != 4 {
		t.Fatalf("granted %d servers, want 4", alloc.TotalServers())
	}

	// The broker recorded the root trace.
	roots := br.Recorder().Traces(obs.TraceQuery{})
	var brokerTrace *obs.Trace
	for i := range roots {
		if roots[i].Root == "broker.coallocate" {
			brokerTrace = &roots[i]
			break
		}
	}
	if brokerTrace == nil {
		t.Fatalf("broker recorder holds no coallocate trace; got %d traces", len(roots))
	}
	brokerSpans := make(map[uint64]string, len(brokerTrace.Spans))
	for _, sp := range brokerTrace.Spans {
		brokerSpans[sp.SpanID] = sp.Name
	}

	// The site recorded remote fragments of the same trace.
	frags := site.Recorder().Traces(obs.TraceQuery{TraceID: brokerTrace.TraceID})
	if len(frags) == 0 {
		t.Fatalf("site recorder holds no fragments of trace %s (site has %d traces total)",
			obs.FormatTraceID(brokerTrace.TraceID), site.Recorder().Len())
	}
	seenRoot := map[string]bool{}
	for _, f := range frags {
		if !f.Remote {
			t.Fatalf("site fragment %q not marked remote", f.Root)
		}
		root := f.Spans[0]
		if root.Parent == 0 {
			t.Fatalf("site fragment %q has no remote parent", f.Root)
		}
		if _, ok := brokerSpans[root.Parent]; !ok {
			t.Fatalf("site fragment %q parents under span %s the broker never recorded",
				f.Root, obs.FormatTraceID(root.Parent))
		}
		seenRoot[f.Root] = true
	}
	for _, want := range []string{"site.probe", "site.prepare", "site.commit"} {
		if !seenRoot[want] {
			t.Fatalf("site fragments %v missing %q", seenRoot, want)
		}
	}
	// The prepare fragment exposes the site-internal pipeline: its queue-wait
	// span parents under the fragment root, proving intra-site spans ride the
	// same trace.
	for _, f := range frags {
		if f.Root != "site.prepare" {
			continue
		}
		var sawWait bool
		for _, sp := range f.Spans[1:] {
			if sp.Name == "site.queue.wait" && sp.Parent == f.Spans[0].SpanID {
				sawWait = true
			}
		}
		if !sawWait {
			t.Fatalf("site.prepare fragment has no site.queue.wait child: %+v", f.Spans)
		}
	}
}
