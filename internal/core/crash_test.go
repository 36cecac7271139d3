package core

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// crashDuringWrite stretches a large WriteAt with a per-packet pace and
// kills agent k from a side goroutine while the write is in flight. It
// returns the write's outcome and the data it attempted to write.
func crashDuringWrite(t *testing.T, c *cluster, f *File, k int, size int) ([]byte, error) {
	t.Helper()
	// Pace the data stream so the crash lands mid-write, and shrink the
	// no-progress budget so a doomed write attributes its failure quickly.
	c.client.cfg.WritePace = 40 * time.Microsecond
	c.client.cfg.MaxRetries = 8

	data := randBytes(size, 77)
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		time.Sleep(8 * time.Millisecond)
		c.agents[k].Close()
	}()
	_, err := f.WriteAt(data, 0)
	<-crashed
	return data, err
}

// TestMidWriteCrashWithoutParity: an agent crash in the middle of a large
// write surfaces as an attributable error — not a hang, not a generic
// failure — and the lifecycle marks the crashed agent, even though no
// failover is possible without redundancy.
func TestMidWriteCrashWithoutParity(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 3, unit: 2048})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const k = 1
	_, err = crashDuringWrite(t, c, f, k, 600_000)
	if err == nil {
		t.Fatal("mid-write crash without parity did not error")
	}
	if !errors.Is(err, ErrRetriesSpent) && !errors.Is(err, ErrAgentDown) {
		t.Fatalf("error not attributable: %v", err)
	}
	if h := c.client.Health()[k]; h.State == StateHealthy {
		t.Fatalf("crashed agent still healthy: %+v", h)
	}
	for i, h := range c.client.Health() {
		if i != k && h.State != StateHealthy {
			t.Fatalf("surviving agent %d marked %v", i, h.State)
		}
	}
}

// TestMidWriteCrashWithParity: the same crash under computed-copy
// redundancy is masked — the write completes by failing over, the full
// object reads back correctly (the crashed agent's units served from
// parity), and the lifecycle has marked the crashed agent.
func TestMidWriteCrashWithParity(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parityShards: 1, unit: 2048})
	f, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const k = 1
	data, err := crashDuringWrite(t, c, f, k, 600_000)
	if err != nil {
		t.Fatalf("mid-write crash not masked by parity: %v", err)
	}

	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("degraded read-back: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("degraded read-back mismatch: write was not consistent")
	}
	if h := c.client.Health()[k]; h.State == StateHealthy {
		t.Fatalf("crashed agent still healthy: %+v", h)
	}

	// Recovery composes with the crash: restart the agent, probe, and the
	// healthy-path read must agree after an explicit rebuild.
	restartAgent(t, c, k)
	c.client.ProbeOnce()
	if h := c.client.Health()[k]; h.State != StateHealthy {
		t.Fatalf("restarted agent not re-admitted: %+v", h)
	}
	if err := f.Rebuild(k); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("post-rebuild read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("post-rebuild read mismatch")
	}
}
