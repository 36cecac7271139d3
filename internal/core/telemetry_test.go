package core

import (
	"strings"
	"testing"

	"swift/internal/obs"
)

// TestStatsAdvance: a live transfer must surface per-operation latency
// percentiles, per-agent burst attribution and protocol counters through
// Client.Stats.
func TestStatsAdvance(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	f, err := c.client.Open("tele", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := randBytes(200_000, 7)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(make([]byte, len(data)), 0); err != nil {
		t.Fatal(err)
	}

	s := c.client.Stats()
	if s.OpenLat.Count == 0 || s.ReadLat.Count == 0 || s.WriteLat.Count == 0 {
		t.Fatalf("operation latency histograms empty: %+v", s)
	}
	if s.ReadLat.P50 <= 0 || s.ReadLat.P99 < s.ReadLat.P50 {
		t.Fatalf("read percentiles implausible: p50=%v p99=%v", s.ReadLat.P50, s.ReadLat.P99)
	}
	if s.OpenFiles != 1 {
		t.Fatalf("open files = %d, want 1", s.OpenFiles)
	}
	if s.Counters.ReadBursts == 0 || s.Counters.WriteBursts == 0 {
		t.Fatalf("protocol counters did not advance: %+v", s.Counters)
	}
	// Striping means every agent carried traffic.
	for i, as := range s.Agents {
		if as.ReadBursts == 0 || as.WriteBursts == 0 {
			t.Errorf("agent %d saw no bursts: %+v", i, as)
		}
		if as.ReadBursts > 0 && as.ReadBurstLat.Count == 0 {
			t.Errorf("agent %d: read bursts counted but no latency recorded", i)
		}
		if as.State != StateHealthy {
			t.Errorf("agent %d not healthy: %v", i, as.State)
		}
	}
	// Per-agent sums must reconcile with the global counters.
	var rb int64
	for _, as := range s.Agents {
		rb += as.ReadBursts
	}
	if rb != s.Counters.ReadBursts {
		t.Errorf("per-agent read bursts %d != global %d", rb, s.Counters.ReadBursts)
	}
}

// TestHealthTransitionsObserved: killing an agent must surface lifecycle
// transitions in both the per-agent counters and the trace ring.
func TestHealthTransitionsObserved(t *testing.T) {
	c := newCluster(t, clusterOpts{parityShards: 1, agents: 3})
	f, err := c.client.Open("hobs", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := randBytes(50_000, 9)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}

	c.agents[1].Close() // kill agent 1; parity masks it
	if _, err := f.ReadAt(make([]byte, len(data)), 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}

	s := c.client.Stats()
	if s.Agents[1].Transitions == 0 {
		t.Fatalf("agent 1 lifecycle transitions not counted: %+v", s.Agents[1])
	}
	if s.Agents[1].State == StateHealthy {
		t.Fatalf("agent 1 still healthy after being killed")
	}
	var sawHealth bool
	for _, e := range c.client.TraceEvents(1024) {
		if e.Kind == "health" && e.Agent == 1 {
			sawHealth = true
			break
		}
	}
	if !sawHealth {
		t.Fatal("no health trace event for agent 1")
	}
}

// TestSharedRegistryExport: a client wired to an external registry must
// expose its series through the Prometheus exporter.
func TestSharedRegistryExport(t *testing.T) {
	reg := obs.NewRegistry()
	n := 0
	for _, name := range reg.Names() {
		_ = name
		n++
	}
	if n != 0 {
		t.Fatalf("fresh registry not empty")
	}

	c := newClusterWithObs(t, reg)
	f, err := c.client.Open("exp", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(randBytes(20_000, 3), 0); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"swift_client_write_seconds",
		"swift_client_agent_write_bursts_total",
		`agent="0"`,
		"swift_client_data_packets_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus export missing %q", want)
		}
	}
}

// newClusterWithObs is newCluster with an external metric registry.
func newClusterWithObs(t *testing.T, reg *obs.Registry) *cluster {
	t.Helper()
	c := newCluster(t, clusterOpts{})
	// Re-dial the client against the same agents with the registry wired.
	addrs := make([]string, len(c.agents))
	for i, a := range c.agents {
		addrs[i] = a.Addr()
	}
	h := c.client.cfg.Host
	c.client.Close()
	cl, err := Dial(Config{
		Host:         h,
		Agents:       addrs,
		StripeUnit:   4096,
		RetryTimeout: c.client.cfg.RetryTimeout,
		MaxRetries:   c.client.cfg.MaxRetries,
		Obs:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.client = cl
	t.Cleanup(func() { cl.Close() })
	return c
}
