package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"swift/internal/ec"
)

// The k=2 (Reed–Solomon) integration matrix: everything the single-XOR
// tests prove for one failure, proven again for two simultaneous
// failures — degraded reads with ANY pair of agents down, degraded
// writes, rebuild while a second agent is still out, read-repair with
// one agent down, and scrub healing a doubly-corrupt row.

// TestDegradedReadMatrixK2: a 3+2 volume serves byte-exact reads with
// any two of its five agents down.
func TestDegradedReadMatrixK2(t *testing.T) {
	for d0 := 0; d0 < 5; d0++ {
		for d1 := d0 + 1; d1 < 5; d1++ {
			t.Run(fmt.Sprintf("dead_%d_%d", d0, d1), func(t *testing.T) {
				c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: 2048})
				if s := c.client.Scheme(); s != "3+2" {
					t.Fatalf("scheme = %q, want 3+2", s)
				}
				f, _ := c.client.Open("obj", OpenFlags{Create: true})
				data := randBytes(60_000, int64(100+5*d0+d1))
				if _, err := f.WriteAt(data, 0); err != nil {
					t.Fatalf("write: %v", err)
				}
				f.Close()

				for _, dead := range []int{d0, d1} {
					c.agents[dead].Close()
					c.client.MarkDown(dead, true)
				}
				g, err := c.client.Open("obj", OpenFlags{})
				if err != nil {
					t.Fatalf("degraded open: %v", err)
				}
				defer g.Close()
				if g.Size() > int64(len(data)) {
					t.Fatalf("degraded size %d > real %d", g.Size(), len(data))
				}
				out := make([]byte, len(data))
				if err := g.readRange(out, 0, true, nil); err != nil {
					t.Fatalf("degraded read: %v", err)
				}
				if !bytes.Equal(out, data) {
					t.Fatal("degraded read mismatch")
				}
			})
		}
	}
}

// TestDegradedWriteThenReadK2: with two agents down, writes land on the
// survivors and read back byte-exact.
func TestDegradedWriteThenReadK2(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: 2048})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	data := randBytes(40_000, 130)
	f.WriteAt(data, 0)
	f.Close()

	for _, dead := range []int{1, 3} {
		c.agents[dead].Close()
		c.client.MarkDown(dead, true)
	}
	g, err := c.client.Open("obj", OpenFlags{})
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer g.Close()
	patch := randBytes(10_000, 131)
	if _, err := g.WriteAt(patch, 5_000); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	copy(data[5_000:], patch)
	out := make([]byte, len(data))
	if err := g.readRange(out, 0, true, nil); err != nil {
		t.Fatalf("degraded read-back: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("degraded write mismatch")
	}
}

// TestMidOperationDoubleFailover: two agents die while the file is open;
// the read discovers both failures mid-operation and still completes.
func TestMidOperationDoubleFailover(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: 2048})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	defer f.Close()
	data := randBytes(50_000, 132)
	f.WriteAt(data, 0)

	c.agents[1].Close()
	c.agents[4].Close()
	out := make([]byte, len(data))
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatalf("double failover read: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("double failover read mismatch")
	}
	st := c.client.ECStats()
	if st.ReconstructCalls == 0 {
		t.Fatal("no codec reconstructions recorded")
	}
}

// TestQuorumLossK2: a third failure exceeds the 3+2 scheme; reads fail
// with ErrNoQuorum instead of hanging or fabricating data.
func TestQuorumLossK2(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: 2048})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	defer f.Close()
	data := randBytes(30_000, 133)
	f.WriteAt(data, 0)

	for _, dead := range []int{0, 2, 4} {
		c.agents[dead].Close()
		c.client.MarkDown(dead, true)
	}
	out := make([]byte, len(data))
	if err := f.readRange(out, 0, true, nil); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("read with 3 agents down = %v, want ErrNoQuorum", err)
	}
}

// TestParityUnitsAreConsistentK2: verify on the agents' raw stores that
// each row's two parity units are the codec's encoding of its data
// units — the at-rest layout matches internal/ec exactly.
func TestParityUnitsAreConsistentK2(t *testing.T) {
	const unit = 1024
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: unit})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	defer f.Close()
	data := randBytes(3*unit*4+777, 134) // a few rows plus a partial tail
	f.WriteAt(data, 0)

	l := c.client.Layout()
	m, k := l.DataPerRow(), l.ParityUnits
	codec, err := ec.New(m, k)
	if err != nil {
		t.Fatal(err)
	}
	lastRow := l.RowOfGlobal(int64(len(data)) - 1)
	for row := int64(0); row <= lastRow; row++ {
		shards := make([][]byte, m+k)
		for a := 0; a < 5; a++ {
			obj, err := c.stores[a].Open("obj", false)
			if err != nil {
				t.Fatalf("agent %d: %v", a, err)
			}
			buf := make([]byte, unit)
			obj.ReadAt(buf, row*unit) // zero-padded tail is fine
			obj.Close()
			if p := l.ParityPos(row, a); p >= 0 {
				shards[m+p] = buf
			} else {
				shards[l.DataPos(row, a)] = buf
			}
		}
		ok, err := codec.Verify(shards)
		if err != nil {
			t.Fatalf("row %d: verify: %v", row, err)
		}
		if !ok {
			t.Fatalf("row %d: parity units do not match codec encoding", row)
		}
	}
}

// TestRebuildWithAgentDownK2: rebuilding a replaced fragment succeeds
// while a second agent is still out — the codec reconstructs through
// both holes.
func TestRebuildWithAgentDownK2(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: 2048})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	data := randBytes(45_000, 135)
	f.WriteAt(data, 0)
	f.Close()

	// Agent 3's disk is replaced; agent 1 is down at the same time.
	if err := c.stores[3].Remove("obj"); err != nil {
		t.Fatalf("remove fragment: %v", err)
	}
	c.agents[1].Close()
	c.client.MarkDown(1, true)

	g, err := c.client.Open("obj", OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open for rebuild: %v", err)
	}
	if err := g.Rebuild(3); err != nil {
		t.Fatalf("rebuild with second agent down: %v", err)
	}
	g.Close()

	want := c.client.Layout().FragmentSizes(int64(len(data)))[3]
	got, err := c.stores[3].Stat("obj")
	if err != nil {
		t.Fatalf("stat rebuilt: %v", err)
	}
	if got != want {
		t.Fatalf("rebuilt fragment size = %d, want %d", got, want)
	}

	h, _ := c.client.Open("obj", OpenFlags{})
	defer h.Close()
	out := make([]byte, len(data))
	if err := h.readRange(out, 0, true, nil); err != nil {
		t.Fatalf("read after rebuild: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("rebuild mismatch")
	}
}

// TestReadRepairCorruptWithAgentDownK2: at-rest corruption on one agent
// while another is down is exactly two impairments — within a 3+2
// scheme's power. The read returns exact data and repairs the rot.
func TestReadRepairCorruptWithAgentDownK2(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, integrityBS: repairBS})
	f0, data := writeObj(t, c, "obj", 100_000, 136)
	f0.Close()

	c.agents[4].Close()
	c.client.MarkDown(4, true)
	f, err := c.client.Open("obj", OpenFlags{})
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer f.Close()

	// Row 0's parity units live on agents 4 (down) and 0; agent 1 holds
	// data there, so rot on it is seen by the healthy read path.
	flipRaw(t, c, 1, "obj", 137)

	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read over corruption with agent down: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read served corrupt bytes")
	}
	m := c.client.MetricsSnapshot()
	if m.Corruptions == 0 || m.Repairs == 0 {
		t.Fatalf("corruptions=%d repairs=%d, want both > 0", m.Corruptions, m.Repairs)
	}
	if m.Unrepairable != 0 {
		t.Fatalf("unrepairable = %d, want 0", m.Unrepairable)
	}
}

// TestScrubHealsDoubleCorruptionK2: two rotten units in the same stripe
// row — unrepairable under single XOR — are reconstructed and rewritten
// by the scrubber under a k=2 scheme.
func TestScrubHealsDoubleCorruptionK2(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, integrityBS: repairBS})
	f, data := writeObj(t, c, "obj", 100_000, 137)
	defer f.Close()

	// Both flips land in row 0 of two different agents.
	flipRaw(t, c, 0, "obj", 137)
	flipRaw(t, c, 1, "obj", 2048)

	rep, err := f.Scrub(ScrubOptions{Repair: true})
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Scheme != "3+2" {
		t.Fatalf("report scheme = %q, want 3+2", rep.Scheme)
	}
	if rep.Corruptions != 2 || rep.Repaired != 2 || rep.Unrepairable != 0 {
		t.Fatalf("scrub report: %s", rep)
	}
	verify, err := f.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatalf("verification scrub: %v", err)
	}
	if !verify.Clean() {
		t.Fatalf("verification scrub not clean: %s", verify)
	}

	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read after scrub: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch after scrub repair")
	}
}

// TestECStatsSurfaceInSnapshot: the client stats snapshot carries the
// scheme and codec counters.
func TestECStatsSurfaceInSnapshot(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 5, parityShards: 2, unit: 2048})
	f, _ := c.client.Open("obj", OpenFlags{Create: true})
	defer f.Close()
	f.WriteAt(randBytes(20_000, 138), 0)

	st := c.client.Stats()
	if st.Scheme != "3+2" {
		t.Fatalf("snapshot scheme = %q, want 3+2", st.Scheme)
	}
	if st.EC.EncodeCalls == 0 || st.EC.EncodeBytes == 0 {
		t.Fatalf("encode counters not advancing: %+v", st.EC)
	}
}

// TestParityShardsValidation: unsatisfiable schemes are rejected at
// dial time.
func TestParityShardsValidation(t *testing.T) {
	h := memnetTestHost(t)
	// k=2 needs at least 4 agents (m >= 2).
	_, err := Dial(Config{Host: h, Agents: []string{"a:1", "b:1", "c:1"}, ParityShards: 2})
	if err == nil {
		t.Fatal("expected error for 3 agents with 2 parity shards")
	}
	// Negative k is rejected.
	_, err = Dial(Config{Host: h, Agents: []string{"a:1", "b:1", "c:1"}, ParityShards: -1})
	if err == nil {
		t.Fatal("expected error for negative parity shards")
	}
}
