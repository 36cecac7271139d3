package core

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// TestRandomOpsAgainstModel drives the full striped stack (client engine,
// wire protocol, agents, stores) with random reads, writes, and truncates
// and cross-checks every result against a plain in-memory model file.
func TestRandomOpsAgainstModel(t *testing.T) {
	configs := []clusterOpts{
		{agents: 1, unit: 512},
		{agents: 3, unit: 1000},
		{agents: 4, unit: 4096, parityShards: 1},
		{agents: 5, unit: 700, parityShards: 1},
	}
	for ci, opts := range configs {
		opts := opts
		c := newCluster(t, opts)
		f, err := c.client.Open("model", OpenFlags{Create: true})
		if err != nil {
			t.Fatalf("config %d: open: %v", ci, err)
		}

		rng := rand.New(rand.NewSource(int64(42 + ci)))
		var model []byte
		const space = 60_000
		for op := 0; op < 60; op++ {
			switch rng.Intn(5) {
			case 0, 1: // write
				off := rng.Int63n(space)
				n := rng.Intn(8000) + 1
				buf := make([]byte, n)
				rng.Read(buf)
				if _, err := f.WriteAt(buf, off); err != nil {
					t.Fatalf("config %d op %d: write: %v", ci, op, err)
				}
				if end := off + int64(n); end > int64(len(model)) {
					grown := make([]byte, end)
					copy(grown, model)
					model = grown
				}
				copy(model[off:], buf)
			case 2, 3: // read
				if len(model) == 0 {
					continue
				}
				off := rng.Int63n(int64(len(model)))
				n := rng.Intn(9000) + 1
				got := make([]byte, n)
				rn, err := f.ReadAt(got, off)
				want := model[off:]
				if n < len(want) {
					want = want[:n]
				}
				if len(want) < n {
					if err != io.EOF {
						t.Fatalf("config %d op %d: short read err = %v", ci, op, err)
					}
				} else if err != nil {
					t.Fatalf("config %d op %d: read: %v", ci, op, err)
				}
				if rn != len(want) || !bytes.Equal(got[:rn], want) {
					t.Fatalf("config %d op %d: read mismatch at %d+%d", ci, op, off, n)
				}
			case 4: // truncate
				size := rng.Int63n(space)
				if err := f.Truncate(size); err != nil {
					t.Fatalf("config %d op %d: truncate: %v", ci, op, err)
				}
				if size <= int64(len(model)) {
					model = model[:size]
				} else {
					grown := make([]byte, size)
					copy(grown, model)
					model = grown
				}
			}
			if f.Size() != int64(len(model)) {
				t.Fatalf("config %d op %d: size %d != model %d", ci, op, f.Size(), len(model))
			}
		}

		// Final full read-back, then reopen and check persistence.
		check := func(g *File) {
			out := make([]byte, len(model)+100)
			n, err := g.ReadAt(out, 0)
			if len(model) > 0 && err != io.EOF && err != nil {
				t.Fatalf("config %d: final read: %v", ci, err)
			}
			if n != len(model) || !bytes.Equal(out[:n], model) {
				t.Fatalf("config %d: final state mismatch (%d vs %d bytes)", ci, n, len(model))
			}
		}
		check(f)
		f.Close()
		g, err := c.client.Open("model", OpenFlags{})
		if err != nil {
			t.Fatalf("config %d: reopen: %v", ci, err)
		}
		if g.Size() != int64(len(model)) {
			t.Fatalf("config %d: reopened size %d != %d", ci, g.Size(), len(model))
		}
		check(g)
		g.Close()
	}
}

func TestEmptyFile(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	f, err := c.client.Open("empty", OpenFlags{Create: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Size() != 0 {
		t.Fatalf("size = %d", f.Size())
	}
	if _, err := f.ReadAt(make([]byte, 10), 0); err != io.EOF {
		t.Fatalf("read empty: %v", err)
	}
	if n, err := f.Write(nil); n != 0 || err != nil {
		t.Fatalf("empty write = %d, %v", n, err)
	}
}

func TestNegativeOffsetsRejected(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	f, _ := c.client.Open("neg", OpenFlags{Create: true})
	defer f.Close()
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative read accepted")
	}
	if _, err := f.WriteAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative write accepted")
	}
	if _, err := f.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek accepted")
	}
	if err := f.Truncate(-1); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

func TestClosedFileRejectsOps(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	f, _ := c.client.Open("closed", OpenFlags{Create: true})
	f.Close()
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := f.WriteAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
	if err := f.Truncate(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("truncate after close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestSparseWrite(t *testing.T) {
	c := newCluster(t, clusterOpts{unit: 1024})
	f, _ := c.client.Open("sparse", OpenFlags{Create: true})
	defer f.Close()
	tail := []byte("tail")
	if _, err := f.WriteAt(tail, 50_000); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 50_004 {
		t.Fatalf("size = %d", f.Size())
	}
	out := make([]byte, 50_004)
	if _, err := f.ReadAt(out, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50_000; i++ {
		if out[i] != 0 {
			t.Fatalf("hole byte %d = %#x", i, out[i])
		}
	}
	if !bytes.Equal(out[50_000:], tail) {
		t.Fatal("tail mismatch")
	}
}

func TestWriteFailsWithoutParityWhenAgentDies(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 3})
	f, _ := c.client.Open("fragile", OpenFlags{Create: true})
	defer f.Close()
	if _, err := f.WriteAt(randBytes(30_000, 50), 0); err != nil {
		t.Fatal(err)
	}
	c.agents[1].Close()
	if _, err := f.WriteAt(randBytes(30_000, 51), 0); !errors.Is(err, ErrRetriesSpent) {
		t.Fatalf("write with dead agent: %v, want ErrRetriesSpent", err)
	}
}

func TestListUnionAcrossAgents(t *testing.T) {
	c := newCluster(t, clusterOpts{agents: 3, unit: 1024})
	for _, name := range []string{"a", "b/c", "zzz"} {
		f, err := c.client.Open(name, OpenFlags{Create: true})
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(randBytes(5000, 60), 0)
		f.Close()
	}
	// A tiny object living on a single agent still shows up.
	g, _ := c.client.Open("tiny", OpenFlags{Create: true})
	g.WriteAt([]byte("x"), 0)
	g.Close()

	names, err := c.client.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b/c", "tiny", "zzz"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestManyNamesList(t *testing.T) {
	// Enough objects that the list reply spans multiple packets.
	c := newCluster(t, clusterOpts{agents: 1, unit: 1024})
	var want []string
	for i := 0; i < 300; i++ {
		name := "object-with-a-rather-long-name-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i%10))
		f, err := c.client.Open(name, OpenFlags{Create: true})
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		want = append(want, name)
	}
	names, err := c.client.List()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, n := range names {
		seen[n] = true
	}
	for _, w := range want {
		if !seen[w] {
			t.Fatalf("missing %q from list of %d", w, len(names))
		}
	}
}

func TestMetricsAdvance(t *testing.T) {
	c := newCluster(t, clusterOpts{})
	f, _ := c.client.Open("metrics", OpenFlags{Create: true})
	defer f.Close()
	f.WriteAt(randBytes(100_000, 70), 0)
	f.ReadAt(make([]byte, 100_000), 0)
	m := c.client.MetricsSnapshot()
	if m.WriteBursts == 0 || m.ReadBursts == 0 || m.DataPackets == 0 {
		t.Fatalf("metrics did not advance: %+v", m)
	}
}
