package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"swift/internal/store"
	"swift/internal/transport"
	"swift/internal/transport/udpnet"
	"swift/internal/wire"
)

// TestTimedConnTransparent: a wrapped socket delivers and receives the
// same bytes from the same addresses as a bare one, returns the same
// errors, and counts what it sent.
func TestTimedConnTransparent(t *testing.T) {
	th := newTimedHost(udpnet.NewHost("127.0.0.1"), newNetProbe(clock{time.Now()}), true)
	th.setLabel("obj")
	a, err := th.Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := udpnet.NewHost("127.0.0.1").Listen("0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.LocalAddr() == "" || !strings.HasPrefix(a.LocalAddr(), "127.0.0.1:") {
		t.Fatalf("LocalAddr = %q", a.LocalAddr())
	}

	data, err := wire.Marshal(&wire.Packet{Header: wire.Header{Type: wire.TData, ReqID: 7, Handle: 3, Offset: 1364, Length: 5}, Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := wire.Marshal(&wire.Packet{Header: wire.Header{Type: wire.TRead, ReqID: 8, Handle: 3, Length: 100}})
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{data, ctl, data, []byte("not a wire packet"), bytes.Repeat([]byte{0xA5}, 1400)}
	buf := make([]byte, 2048)
	for i, p := range payloads {
		// wrapped -> bare
		if err := a.WriteTo(p, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		b.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, from, err := b.ReadFrom(buf)
		if err != nil || !bytes.Equal(buf[:n], p) || from != a.LocalAddr() {
			t.Fatalf("payload %d via wrapped send: %q from %q err %v", i, buf[:n], from, err)
		}
		// bare -> wrapped
		if err := b.WriteTo(p, a.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		a.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, from, err = a.ReadFrom(buf)
		if err != nil || !bytes.Equal(buf[:n], p) || from != b.LocalAddr() {
			t.Fatalf("payload %d via wrapped receive: %q from %q err %v", i, buf[:n], from, err)
		}
	}

	// Same errors as the bare socket.
	errW, errB := a.WriteTo([]byte("x"), "not-an-address"), b.WriteTo([]byte("x"), "not-an-address")
	if errW == nil || errB == nil || errW.Error() != errB.Error() {
		t.Fatalf("bad address: wrapped %v, bare %v", errW, errB)
	}
	a.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	b.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	_, _, errW = a.ReadFrom(buf)
	_, _, errB = b.ReadFrom(buf)
	if errW != errB || !errors.Is(errW, transport.ErrTimeout) {
		t.Fatalf("timeout: wrapped %v, bare %v", errW, errB)
	}

	n := &th.net
	if got := n.pktsOut.Load(); got != int64(len(payloads)) {
		t.Errorf("pktsOut = %d, want %d", got, len(payloads))
	}
	if n.dataPkts.Load() != 2 || n.dataFirst.Load() != 1 || n.ctlPkts.Load() != 1 || n.badPkts.Load() != 2 {
		t.Errorf("data %d first %d ctl %d bad %d, want 2 1 1 2",
			n.dataPkts.Load(), n.dataFirst.Load(), n.ctlPkts.Load(), n.badPkts.Load())
	}
	if n.readTimeouts.Load() != 1 {
		t.Errorf("readTimeouts = %d, want 1", n.readTimeouts.Load())
	}
	if ivs, _ := th.logFor("obj").sorted(); len(ivs) == 0 {
		t.Error("no socket intervals logged under the label")
	}
}

// storeTranscript runs one fixed sequence of store calls and records
// every result, so a bare and a wrapped store can be compared.
func storeTranscript(t *testing.T, s store.Store) []string {
	var out []string
	rec := func(op string, vals ...any) { out = append(out, fmt.Sprint(append([]any{op}, vals...)...)) }
	recErr := func(op string, err error) {
		rec(op, err, errors.Is(err, store.ErrNotExist), errors.Is(err, io.EOF))
	}
	_, err := s.Open("missing", false)
	recErr("open-missing", err)
	o, err := s.Open("a/b", true)
	if err != nil {
		t.Fatal(err)
	}
	n, err := o.WriteAt([]byte("0123456789"), 4)
	rec("write", n)
	recErr("write-err", err)
	p := make([]byte, 20)
	n, err = o.ReadAt(p, 0)
	rec("read-short", n, p[:n])
	recErr("read-short-err", err)
	n, err = o.ReadAt(p, 100)
	rec("read-past-end", n)
	recErr("read-past-end-err", err)
	size, err := o.Size()
	rec("size", size, err)
	recErr("truncate", o.Truncate(6))
	recErr("sync", o.Sync())
	size, err = s.Stat("a/b")
	rec("stat", size, err)
	names, err := s.List()
	rec("list", names, err)
	recErr("close", o.Close())
	recErr("remove", s.Remove("a/b"))
	recErr("remove-again", s.Remove("a/b"))
	_, err = s.Stat("a/b")
	recErr("stat-removed", err)
	return out
}

// TestTimedStoreTransparent: the wrapped store returns exactly what the
// bare store returns, and counts the calls it timed.
func TestTimedStoreTransparent(t *testing.T) {
	bare, err := store.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := store.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := newTimedStore(inner, clock{time.Now()})
	want, got := storeTranscript(t, bare), storeTranscript(t, ts)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("wrapped store diverged:\nbare    %q\nwrapped %q", want, got)
	}
	st := &ts.st
	if st.readCalls.Load() != 2 || st.writeCalls.Load() != 1 || st.wroteBytes.Load() != 10 || st.readBytes.Load() != 14 {
		t.Errorf("reads %d writes %d wrote %d read %d, want 2 1 10 14",
			st.readCalls.Load(), st.writeCalls.Load(), st.wroteBytes.Load(), st.readBytes.Load())
	}
	if ivs, _ := ts.log.sorted(); len(ivs) != 5 {
		t.Errorf("logged %d store intervals, want 5 (2 reads, 1 write, truncate, sync)", len(ivs))
	}
}

// TestTinyRuns: a short run of every workload, untraced and traced,
// reads back only correct bytes, prints every metric README.md lists and
// carries every BENCHMARK.json metric in its result line.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real clusters")
	}
	spec := readSpec(t)
	named := map[bool][]string{
		false: {"setup_s", "write_MBps", "read_MBps", "ops_per_s", "read_p50_ms", "read_tail_ms",
			"write_p50_ms", "write_tail_ms", "cpu_s_per_GiB", "alloc_B_per_B", "stored_B_per_B", "error_rate"},
		true: {"core.read_bursts_per_MiB", "core.write_bursts_per_MiB", "core.timeouts", "core.resend_asks",
			"core.op_self_ms", "transport.pkts_per_MiB", "transport.wire_B_per_B", "transport.send_s",
			"transport.recv_wait_s", "transport.read_timeouts", "wire.data_pkts", "wire.ctl_pkts_per_MiB",
			"wire.useful_data_ratio", "agent.serve_self_ms", "agent.pushbacks", "store.read_calls",
			"store.write_calls", "store.busy_s", "store.written_B_per_B", "store.read_B_per_B",
			"ec.encode_B_per_B", "ec.encode_s", "ec.reconstruct_B", "ec.reconstruct_s", "cache.hit_ratio",
			"cache.evictions", "cache.fetched_B_per_read_B", "runtime.gc_cycles_per_GiB",
			"runtime.gc_pause_s", "runtime.heap_peak_MiB", "runtime.cpu_busy_frac"},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, traced), func(t *testing.T) {
				var out bytes.Buffer
				o, err := run(w, 3, 0.4, traced, t.TempDir(), &out)
				if err != nil {
					t.Fatal(err)
				}
				text := out.String()
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line: %v\n%s", err, text)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || o.failed != 0 {
					t.Fatalf("run not correct: %+v, first error %v", res, o.firstErr)
				}
				for _, n := range named[traced] {
					if !strings.Contains(text, "\n"+n+" ") {
						t.Errorf("report lacks %s", n)
					}
				}
				if !traced && !strings.Contains(text, "error_rate                                0 ") {
					t.Errorf("error_rate is not 0:\n%s", text)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result carries %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("result line: %s = %+v, want unit %s", m.Name, v, m.Unit)
					}
				}
			})
		}
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) (spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Fatalf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// TestTail: the tail is the highest percentile with ten samples beyond it.
func TestTail(t *testing.T) {
	var lat []time.Duration
	for i := 100; i >= 1; i-- {
		lat = append(lat, time.Duration(i))
	}
	l := summarize(lat)
	if l.tail != 90 || l.tailPct != 90 || l.p50 != 50 {
		t.Fatalf("summarize(1..100) = %+v, want tail 90 at p90, p50 50", l)
	}
}
