package core

import (
	"bytes"
	"io"
	"testing"
	"time"

	"swift/internal/transport/memnet"
)

// raCluster builds a cluster whose client has read-ahead enabled.
func raCluster(t *testing.T, readAhead int64) (*cluster, *Client) {
	t.Helper()
	c := newCluster(t, clusterOpts{unit: 4096})
	if readAhead == 0 {
		return c, c.client
	}
	// Dial a second client with read-ahead against the same agents.
	addrs := make([]string, len(c.agents))
	for i, a := range c.agents {
		addrs[i] = a.Addr()
	}
	h := c.net.MustHost("ra-client", memnet.HostConfig{}, c.seg)
	cl, err := Dial(Config{
		Host: h, Agents: addrs, StripeUnit: 4096,
		RetryTimeout: 30 * time.Millisecond, MaxRetries: 100,
		ReadAhead: readAhead,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return c, cl
}

func TestReadAheadCorrectness(t *testing.T) {
	c, cl := raCluster(t, 64*1024)
	data := randBytes(300_000, 80)
	// Write with the plain client.
	f, err := c.client.Open("ra", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(data, 0)
	f.Close()

	g, err := cl.Open("ra", OpenFlags{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// Small sequential reads through the window.
	var got bytes.Buffer
	buf := make([]byte, 8000)
	for {
		n, err := g.Read(buf)
		got.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("sequential read-ahead mismatch")
	}

	// Random reads bypass the window but stay correct.
	for _, off := range []int64{250_000, 10, 123_456, 0} {
		out := make([]byte, 5000)
		n, err := g.ReadAt(out, off)
		if err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(out[:n], data[off:off+int64(n)]) {
			t.Fatalf("random read at %d mismatch", off)
		}
	}
}

func TestReadAheadInvalidatedByWrite(t *testing.T) {
	_, cl := raCluster(t, 64*1024)
	data := randBytes(100_000, 81)
	f, err := cl.Open("raw", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.WriteAt(data, 0)

	// Prime the window.
	buf := make([]byte, 8192)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite inside the window; the next sequential read must see it.
	patch := randBytes(4096, 82)
	f.WriteAt(patch, 8192)
	copy(data[8192:], patch)
	if _, err := f.ReadAt(buf, 8192); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:4096], patch) {
		t.Fatal("stale read-ahead window served after write")
	}
	_ = data
}

func TestReadAheadReducesRequests(t *testing.T) {
	// With a 128 KB window, 8 KB sequential reads issue far fewer read
	// bursts than without.
	_, cl := raCluster(t, 128*1024)
	data := randBytes(256*1024, 83)
	f, _ := cl.Open("rac", OpenFlags{Create: true})
	defer f.Close()
	f.WriteAt(data, 0)

	before := cl.MetricsSnapshot().ReadBursts
	buf := make([]byte, 8192)
	for off := int64(0); off < int64(len(data)); off += 8192 {
		if _, err := f.ReadAt(buf, off); err != nil {
			t.Fatal(err)
		}
	}
	bursts := cl.MetricsSnapshot().ReadBursts - before
	// 256 KB / 128 KB windows over 3 agents ≈ 6 bursts; without
	// read-ahead each 8 KB read costs >= 2 bursts (32 reads).
	if bursts > 12 {
		t.Fatalf("read-ahead issued %d bursts, want few", bursts)
	}
}
