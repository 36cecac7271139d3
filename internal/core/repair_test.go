package core

import (
	"bytes"
	"errors"
	"testing"

	"swift/internal/integrity"
)

// The read-repair / degraded-read matrix. Every test builds a cluster
// whose agent stores sit beneath an integrity envelope, seeds at-rest
// corruption by flipping raw bytes under the envelope, and asserts the
// three guarantees of the integrity subsystem:
//
//   - corrupt bytes are never served: reads either return the exact
//     written data (after transparent repair) or a corrupt error;
//   - with parity and a full complement of live agents, repair is
//     automatic and persistent;
//   - when redundancy cannot cover the damage (no parity, a second
//     impairment), the corruption surfaces as an error, and the
//     unrepairable counter records it.

const repairBS = 4096 // envelope block size used throughout

// physOf maps a fragment-local logical offset to the raw physical offset
// of that byte beneath an integrity envelope with block size bs.
func physOf(localOff, bs int64) int64 {
	return (localOff/bs)*(bs+integrity.HeaderSize) + integrity.HeaderSize + localOff%bs
}

// flipRaw XORs one raw byte of agent ai's fragment of name, beneath the
// integrity envelope, at fragment-local logical offset localOff.
func flipRaw(t *testing.T, c *cluster, ai int, name string, localOff int64) {
	t.Helper()
	obj, err := c.stores[ai].Open(name, false)
	if err != nil {
		t.Fatalf("flip: open raw %q on agent %d: %v", name, ai, err)
	}
	defer obj.Close()
	var b [1]byte
	phys := physOf(localOff, repairBS)
	if _, err := obj.ReadAt(b[:], phys); err != nil {
		t.Fatalf("flip: read raw byte on agent %d: %v", ai, err)
	}
	b[0] ^= 0xA5
	if _, err := obj.WriteAt(b[:], phys); err != nil {
		t.Fatalf("flip: write raw byte on agent %d: %v", ai, err)
	}
}

func writeObj(t *testing.T, c *cluster, name string, n int, seed int64) (*File, []byte) {
	t.Helper()
	f, err := c.client.Open(name, OpenFlags{Create: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	data := randBytes(n, seed)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	return f, data
}

// TestReadRepairHealsCorruptUnit: a single rotten data unit under parity
// is detected, never served, repaired in place, and stays repaired.
func TestReadRepairHealsCorruptUnit(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parityShards: 1, integrityBS: repairBS})
	f, data := writeObj(t, c, "obj", 100_000, 1)
	defer f.Close()

	// Agent 1's row-0 unit is data (ParityAgent(0) = 3).
	flipRaw(t, c, 1, "obj", 137)

	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read over corruption: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read served corrupt bytes")
	}
	m := c.client.MetricsSnapshot()
	if m.Corruptions == 0 {
		t.Fatal("corruption not detected")
	}
	if m.Repairs == 0 {
		t.Fatal("no repair performed")
	}
	if m.Unrepairable != 0 {
		t.Fatalf("unrepairable = %d, want 0", m.Unrepairable)
	}

	// The repair is persistent: a fresh read touches clean media.
	before := c.client.MetricsSnapshot()
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("post-repair read: %v", err)
	}
	if d := c.client.MetricsSnapshot().Sub(before); d.Corruptions != 0 {
		t.Fatalf("repair did not persist: %d fresh corruptions", d.Corruptions)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-repair read mismatch")
	}
}

// TestReadCorruptNoParity: without parity there is nothing to repair
// from — the read must fail with a corrupt error, never return rot.
func TestReadCorruptNoParity(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 3, integrityBS: repairBS})
	f, data := writeObj(t, c, "obj", 60_000, 2)
	defer f.Close()

	flipRaw(t, c, 0, "obj", 137)

	got := make([]byte, len(data))
	_, err := f.ReadAt(got, 0)
	if err == nil {
		t.Fatal("read of corrupt data succeeded without parity")
	}
	if !integrity.IsCorrupt(err) {
		t.Fatalf("error is not a corruption report: %v", err)
	}
	m := c.client.MetricsSnapshot()
	if m.Corruptions == 0 {
		t.Fatal("corruption not detected")
	}
	if m.Unrepairable == 0 {
		t.Fatal("unrepairable corruption not counted")
	}
	if m.Repairs != 0 {
		t.Fatalf("repairs = %d without parity", m.Repairs)
	}
}

// TestReadCorruptAgentDown: corruption on one agent while another is
// already down exceeds single-parity redundancy. The read must error —
// quorum loss or a corruption report, never silent rot.
func TestReadCorruptAgentDown(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parityShards: 1, integrityBS: repairBS})
	// Stage the object while all agents are up.
	f0, data := writeObj(t, c, "obj", 100_000, 3)
	f0.Close()

	// Take agent 3 down, then open degraded.
	c.agents[3].Close()
	c.client.MarkDown(3, true)
	f, err := c.client.Open("obj", OpenFlags{})
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer f.Close()

	// Degraded reads work while media is clean.
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read mismatch")
	}

	// Now rot a data unit on a live agent: two impairments, one parity.
	flipRaw(t, c, 0, "obj", 137)
	_, err = f.ReadAt(got, 0)
	if err == nil {
		t.Fatal("read served corrupt bytes with an agent down")
	}
	if !errors.Is(err, ErrNoQuorum) && !integrity.IsCorrupt(err) {
		t.Fatalf("unexpected error class: %v", err)
	}
	if m := c.client.MetricsSnapshot(); m.Corruptions == 0 {
		t.Fatal("corruption not detected")
	}
}

// TestWriteRepairsCorruptBlock: a partial write whose merge-read hits a
// corrupt block triggers write-path repair, then completes; the final
// content is byte-exact.
func TestWriteRepairsCorruptBlock(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parityShards: 1, integrityBS: repairBS})
	f, data := writeObj(t, c, "obj", 100_000, 4)
	defer f.Close()

	flipRaw(t, c, 1, "obj", 137)

	// A small unaligned write into agent 1's corrupt block: the agent's
	// merge-read reports the rot, the client repairs the row from parity
	// and retries.
	g, ok := f.c.layout.GlobalOf(1, 200)
	if !ok {
		t.Fatal("agent 1 local 200 is a parity offset?")
	}
	patch := []byte("0123456789")
	if _, err := f.WriteAt(patch, g); err != nil {
		t.Fatalf("write over corruption: %v", err)
	}
	copy(data[g:], patch)

	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch after write-path repair")
	}
	m := c.client.MetricsSnapshot()
	if m.Corruptions == 0 || m.Repairs == 0 {
		t.Fatalf("corruptions=%d repairs=%d, want both > 0", m.Corruptions, m.Repairs)
	}
	if m.Unrepairable != 0 {
		t.Fatalf("unrepairable = %d, want 0", m.Unrepairable)
	}
}

// TestScrubHealsParityUnit: rot in a parity unit is invisible to reads;
// only the scrubber finds and repairs it.
func TestScrubHealsParityUnit(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parityShards: 1, integrityBS: repairBS})
	f, data := writeObj(t, c, "obj", 100_000, 5)
	defer f.Close()

	// Row 0's parity unit lives on agent 3 at local [0, Unit).
	flipRaw(t, c, 3, "obj", 137)

	// Reads never touch parity on the healthy path.
	before := c.client.MetricsSnapshot()
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
	if d := c.client.MetricsSnapshot().Sub(before); d.Corruptions != 0 {
		t.Fatalf("healthy read touched parity: %d corruptions", d.Corruptions)
	}

	rep, err := f.Scrub(ScrubOptions{Repair: true})
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Corruptions != 1 || rep.Repaired != 1 || rep.Unrepairable != 0 {
		t.Fatalf("scrub report: %s", rep)
	}
	verify, err := f.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatalf("verification scrub: %v", err)
	}
	if !verify.Clean() {
		t.Fatalf("verification scrub not clean: %s", verify)
	}
}

// TestScrubRecomputesStaleParity: a parity unit with a valid checksum
// but stale content (the crash-between-data-and-parity-writes case) is
// caught by the scrubber's XOR audit and recomputed from data.
func TestScrubRecomputesStaleParity(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parityShards: 1, integrityBS: repairBS})
	f, data := writeObj(t, c, "obj", 100_000, 6)
	defer f.Close()

	// Rewrite agent 3's row-0 parity unit through a fresh envelope over
	// the same raw store: valid checksum, wrong parity.
	ist := integrity.NewStore(c.stores[3], repairBS)
	obj, err := ist.Open("obj", false)
	if err != nil {
		t.Fatalf("open via envelope: %v", err)
	}
	junk := randBytes(64, 99)
	if _, err := obj.WriteAt(junk, 100); err != nil {
		t.Fatalf("stale-parity write: %v", err)
	}
	obj.Close()

	rep, err := f.Scrub(ScrubOptions{Repair: true})
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Corruptions != 0 || rep.ParityMismatches != 1 || rep.Repaired != 1 {
		t.Fatalf("scrub report: %s", rep)
	}
	verify, err := f.Scrub(ScrubOptions{})
	if err != nil {
		t.Fatalf("verification scrub: %v", err)
	}
	if !verify.Clean() {
		t.Fatalf("verification scrub not clean: %s", verify)
	}

	// Data was never at risk.
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch")
	}
}

// TestScrubDoubleCorruptionUnrepairable: two rotten units in the same
// stripe row exceed single parity. The scrubber reports them
// unrepairable, and reads of the row fail with a corruption error.
func TestScrubDoubleCorruptionUnrepairable(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 4, parityShards: 1, integrityBS: repairBS})
	f, data := writeObj(t, c, "obj", 100_000, 7)
	defer f.Close()

	// Both flips land in row 0 (agents 0 and 1 hold data there).
	flipRaw(t, c, 0, "obj", 137)
	flipRaw(t, c, 1, "obj", 2048)

	rep, err := f.Scrub(ScrubOptions{Repair: true})
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Unrepairable != 2 {
		t.Fatalf("unrepairable = %d, want 2 (report: %s)", rep.Unrepairable, rep)
	}
	if rep.Repaired != 0 {
		t.Fatalf("repaired = %d units of an unrepairable row", rep.Repaired)
	}

	got := make([]byte, len(data))
	_, err = f.ReadAt(got, 0)
	if err == nil {
		t.Fatal("read served a doubly-corrupt row")
	}
	if !integrity.IsCorrupt(err) && !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("unexpected error class: %v", err)
	}
	if m := c.client.MetricsSnapshot(); m.Unrepairable == 0 {
		t.Fatal("unrepairable corruption not counted")
	}
}
