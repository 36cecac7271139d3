package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"swift/internal/core"
)

type phaseKind int

const (
	kindWrite phaseKind = iota // only writes run in the phase
	kindRead                   // only reads run in the phase
	kindMixed                  // reads and writes interleave
)

// window is one timed slice of traffic.
type window struct {
	kind       phaseKind
	round      int
	start, end time.Time
	ops        opStats
	delta      map[string]float64 // counter deltas across the window
}

// runner holds one cluster and the workload state driven against it.
type runner struct {
	w       *workload
	seed    uint64
	content *content
	c       *cluster
	sh      *shadow

	seq   *seqState    // stream, ec-degraded
	files []*core.File // mixed-small
	mix   []*mixClient // mixed-small

	ops      opStats // every window's calls
	windows  []*window
	delta    map[string]float64 // counter deltas summed over the windows
	heapPeak uint64             // traced runs only
	stored   int64              // fragment bytes on the agents
	logical  int64              // object bytes they hold
}

// setUp starts a cluster for w under dir and prepares the workload,
// returning the runner and the wall time it took.
func setUp(w *workload, seed uint64, c *content, dir string, pr *probes) (*runner, time.Duration, error) {
	t0 := time.Now()
	cl, err := startCluster(dir, w, pr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: start cluster: %w", w.name, err)
	}
	r := &runner{w: w, seed: seed, content: c, c: cl, delta: make(map[string]float64)}
	if err := w.prepare(r); err != nil {
		r.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return r, time.Since(t0), nil
}

func (r *runner) close() error {
	for _, f := range r.files {
		if f != nil {
			f.Close()
		}
	}
	if r.seq != nil && r.seq.f != nil {
		r.seq.f.Close()
	}
	return r.c.close()
}

// noteStored records the space the agents use for logical object bytes.
func (r *runner) noteStored(logical int64) error {
	b, err := r.c.storedBytes()
	if err != nil {
		return fmt.Errorf("stored bytes: %w", err)
	}
	r.stored, r.logical = b, logical
	return nil
}

// phase runs fn as one timed window of the given round; fn records its
// calls in the window's opStats.
func (r *runner) phase(kind phaseKind, round int, fn func(st *opStats)) {
	var stop func() uint64
	if r.c.pr != nil {
		stop = sampleHeap()
	}
	w := &window{kind: kind, round: round, delta: make(map[string]float64)}
	before := r.counters()
	w.start = time.Now()
	fn(&w.ops)
	w.end = time.Now()
	after := r.counters()
	if stop != nil {
		if p := stop(); p > r.heapPeak {
			r.heapPeak = p
		}
	}
	for k, v := range after {
		w.delta[k] = v - before[k]
		r.delta[k] += w.delta[k]
	}
	r.ops.merge(&w.ops)
	r.windows = append(r.windows, w)
}

// counters reads every cumulative counter the metrics are derived from.
func (r *runner) counters() map[string]float64 {
	m := map[string]float64{"cpu_s": cpuSeconds()}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	m["alloc_B"] = float64(samples[0].Value.Uint64())
	m["gc_cycles"] = float64(samples[1].Value.Uint64())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["gc_pause_s"] = float64(ms.PauseTotalNs) / 1e9

	s := r.c.client.Stats()
	m["core.read_bursts"] = float64(s.Counters.ReadBursts)
	m["core.write_bursts"] = float64(s.Counters.WriteBursts)
	m["core.timeouts"] = float64(s.Counters.ReadTimeouts + s.Counters.WriteTimeouts)
	m["core.resend_asks"] = float64(s.Counters.ResendAsks)
	m["agent.pushbacks"] = float64(s.Overload.Pushbacks)
	m["ec.encode_calls"] = float64(s.EC.EncodeCalls)
	m["ec.encode_B"] = float64(s.EC.EncodeBytes)
	m["ec.encode_s"] = s.ECEncodeLat.Sum.Seconds()
	m["ec.reconstruct_calls"] = float64(s.EC.ReconstructCalls)
	m["ec.reconstruct_B"] = float64(s.EC.ReconstructBytes)
	m["ec.reconstruct_s"] = s.ECReconstructLat.Sum.Seconds()
	cs := r.c.client.CacheStats()
	m["cache.hits"] = float64(cs.Hits)
	m["cache.misses"] = float64(cs.Misses)
	m["cache.evictions"] = float64(cs.Evictions)

	pr := r.c.pr
	if pr == nil {
		return m
	}
	for i, h := range append([]*timedHost{pr.client}, pr.hosts...) {
		n := &h.net
		m["net.pkts"] += float64(n.pktsOut.Load())
		m["net.bytes"] += float64(n.bytesOut.Load())
		m["net.send_s"] += float64(n.sendNs.Load()) / 1e9
		m["wire.data_pkts"] += float64(n.dataPkts.Load())
		m["wire.data_first"] += float64(n.dataFirst.Load())
		m["wire.ctl_pkts"] += float64(n.ctlPkts.Load())
		m["wire.bad_pkts"] += float64(n.badPkts.Load())
		if i == 0 {
			m["net.client_recv_s"] = float64(n.recvNs.Load()) / 1e9
			m["net.client_recv_calls"] = float64(n.recvCalls.Load())
			m["net.client_timeouts"] = float64(n.readTimeouts.Load())
		} else {
			m["wire.agent_data_B"] += float64(n.dataBytes.Load())
		}
	}
	for _, s := range pr.stores {
		st := &s.st
		m["store.read_calls"] += float64(st.readCalls.Load())
		m["store.write_calls"] += float64(st.writeCalls.Load())
		m["store.read_B"] += float64(st.readBytes.Load())
		m["store.write_B"] += float64(st.wroteBytes.Load())
		m["store.busy_s"] += float64(st.busyNs.Load()) / 1e9
	}
	return m
}

// cpuSeconds is the process's user plus system CPU time. The agents run
// in-process, so it is the whole deployment's software cost.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sampleHeap polls the live heap every 5 ms until the returned function
// is called; that function stops the poller, waits for it and returns
// the largest heap seen.
func sampleHeap() func() uint64 {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	read := func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		wg.Wait()
		read()
		return peak
	}
}

// wall sums the durations of ws, restricted to the windows in which the
// given op type ran.
func wall(ws []*window, write, read bool) float64 {
	var s float64
	for _, w := range ws {
		if w.kind == kindMixed || write && w.kind == kindWrite || read && w.kind == kindRead {
			s += w.end.Sub(w.start).Seconds()
		}
	}
	return s
}

// metric is one named, unit-carrying result.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed after the value in the human-readable report
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// roundMetrics derives the rates, latencies and costs of one round.
func roundMetrics(ws []*window) map[string]float64 {
	var o opStats
	delta := map[string]float64{}
	for _, w := range ws {
		o.merge(&w.ops)
		for k, v := range w.delta {
			delta[k] += v
		}
	}
	moved := float64(o.readBytes + o.writeBytes)
	rl, wl := summarize(o.readLat), summarize(o.writeLat)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	return map[string]float64{
		"write_MBps":     ratio(float64(o.writeBytes)/1e6, wall(ws, true, false)),
		"read_MBps":      ratio(float64(o.readBytes)/1e6, wall(ws, false, true)),
		"ops_per_s":      ratio(float64(o.calls), wall(ws, true, true)),
		"read_tail_ms":   ms(rl.tail),
		"read_tail_pct":  rl.tailPct,
		"reads":          float64(rl.n),
		"write_tail_ms":  ms(wl.tail),
		"write_tail_pct": wl.tailPct,
		"writes":         float64(wl.n),
		"cpu_s_per_GiB":  ratio(delta["cpu_s"], moved/(1<<30)),
		"alloc_B_per_B":  ratio(delta["alloc_B"], moved),
	}
}

// endToEnd derives the user-visible metrics of a measured runner: each
// rate, tail and cost is the median over the rounds.
func (r *runner) endToEnd(setup float64, setupNote string) []metric {
	byRound := map[int][]*window{}
	for _, w := range r.windows {
		byRound[w.round] = append(byRound[w.round], w)
	}
	per := map[string][]float64{}
	for _, ws := range byRound {
		for k, v := range roundMetrics(ws) {
			per[k] = append(per[k], v)
		}
	}
	med := func(k string) float64 { return median(per[k]) }
	n := len(byRound)
	// The p50s are taken over every call of the run: a round's median
	// flips with the phase the round fell in, the run's does not.
	rl, wl := summarize(r.ops.readLat), summarize(r.ops.writeLat)
	calls := func(l latencies) string { return fmt.Sprintf("median of all %d calls", l.n) }
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	tail := func(k string) string {
		return fmt.Sprintf("median of %d rounds; each round's 11th-largest call, ~p%.1f of ~%.0f calls", n, med(k+"_tail_pct"), med(k+"s"))
	}
	o := &r.ops
	return []metric{
		{"setup_s", setup, "s", setupNote},
		{"write_MBps", med("write_MBps"), "MB/s", fmt.Sprintf("median of %d rounds", n)},
		{"read_MBps", med("read_MBps"), "MB/s", fmt.Sprintf("median of %d rounds", n)},
		{"ops_per_s", med("ops_per_s"), "1/s", fmt.Sprintf("median of %d rounds", n)},
		{"read_p50_ms", ms(rl.p50), "ms", calls(rl)},
		{"read_tail_ms", med("read_tail_ms"), "ms", tail("read")},
		{"write_p50_ms", ms(wl.p50), "ms", calls(wl)},
		{"write_tail_ms", med("write_tail_ms"), "ms", tail("write")},
		{"cpu_s_per_GiB", med("cpu_s_per_GiB"), "s/GiB", fmt.Sprintf("median of %d rounds", n)},
		{"alloc_B_per_B", med("alloc_B_per_B"), "B/B", fmt.Sprintf("median of %d rounds", n)},
		{"stored_B_per_B", ratio(float64(r.stored), float64(r.logical)), "B/B", ""},
		{"error_rate", ratio(float64(o.failed), float64(o.calls)), "1",
			fmt.Sprintf("%d of %d calls failed, timed out or read wrong bytes", o.failed, o.calls)},
	}
}

// perLayer derives the traced run's layer metrics.
func (r *runner) perLayer(a *traceAnalysis) []metric {
	d := r.delta
	o := &r.ops
	userB := float64(o.readBytes + o.writeBytes)
	readMiB, writeMiB := float64(o.readBytes)/miB, float64(o.writeBytes)/miB
	elapsed := wall(r.windows, true, true)
	return []metric{
		{"core.read_bursts_per_MiB", ratio(d["core.read_bursts"], readMiB), "1/MiB", ""},
		{"core.write_bursts_per_MiB", ratio(d["core.write_bursts"], writeMiB), "1/MiB", ""},
		{"core.timeouts", d["core.timeouts"], "count", ""},
		{"core.resend_asks", d["core.resend_asks"], "count", ""},
		{"core.op_self_ms", ratio(a.opSelf*1e3, float64(a.ops)), "ms", fmt.Sprintf("mean of %d client ops", a.ops)},
		{"transport.pkts_per_MiB", ratio(d["net.pkts"], userB/miB), "1/MiB", ""},
		{"transport.wire_B_per_B", ratio(d["net.bytes"], userB), "B/B", ""},
		{"transport.send_s", d["net.send_s"], "s", "all sockets"},
		{"transport.recv_wait_s", d["net.client_recv_s"], "s", "client sockets"},
		{"transport.read_timeouts", d["net.client_timeouts"], "count", "client sockets"},
		{"wire.data_pkts", d["wire.data_pkts"], "count", ""},
		{"wire.ctl_pkts_per_MiB", ratio(d["wire.ctl_pkts"], userB/miB), "1/MiB", ""},
		{"wire.useful_data_ratio", ratio(d["wire.data_first"], d["wire.data_pkts"]), "1", ""},
		{"agent.serve_self_ms", ratio(a.srvSelf*1e3, float64(a.serves)), "ms", fmt.Sprintf("mean of %d serve spans", a.serves)},
		{"agent.pushbacks", d["agent.pushbacks"], "count", ""},
		{"store.read_calls", d["store.read_calls"], "count", ""},
		{"store.write_calls", d["store.write_calls"], "count", ""},
		{"store.busy_s", d["store.busy_s"], "s", ""},
		{"store.written_B_per_B", ratio(d["store.write_B"], float64(o.writeBytes)), "B/B", ""},
		{"store.read_B_per_B", ratio(d["store.read_B"], float64(o.readBytes)), "B/B", ""},
		{"ec.encode_B_per_B", ratio(d["ec.encode_B"], float64(o.writeBytes)), "B/B", ""},
		{"ec.encode_s", d["ec.encode_s"], "s", fmt.Sprintf("%.0f calls", d["ec.encode_calls"])},
		{"ec.reconstruct_B", d["ec.reconstruct_B"], "B", ""},
		{"ec.reconstruct_s", d["ec.reconstruct_s"], "s", fmt.Sprintf("%.0f calls", d["ec.reconstruct_calls"])},
		{"cache.hit_ratio", ratio(d["cache.hits"], d["cache.hits"]+d["cache.misses"]), "1", ""},
		{"cache.evictions", d["cache.evictions"], "count", ""},
		{"cache.fetched_B_per_read_B", ratio(d["wire.agent_data_B"], float64(o.readBytes)), "B/B", ""},
		{"runtime.gc_cycles_per_GiB", ratio(d["gc_cycles"], userB/(1<<30)), "1/GiB", ""},
		{"runtime.gc_pause_s", d["gc_pause_s"], "s", ""},
		{"runtime.heap_peak_MiB", float64(r.heapPeak) / miB, "MiB", ""},
		{"runtime.cpu_busy_frac", ratio(d["cpu_s"], elapsed*float64(runtime.GOMAXPROCS(0))), "1", ""},
	}
}

// outcome is what one invocation measured.
type outcome struct {
	attempted, failed int64
	firstErr          error
	metrics           []metric // the metrics the final JSON line carries
	report            []string // human-readable lines printed before it
	info              map[string]float64
}

func (o *outcome) add(r *runner) {
	o.attempted += r.ops.calls
	o.failed += r.ops.failed
	if o.firstErr == nil {
		o.firstErr = r.ops.firstErr
	}
}

// runDir returns a fresh directory for one cluster's stores.
func runDir(root, tag string) string {
	return filepath.Join(root, ".bench_build", "run", fmt.Sprintf("%d-%s", os.Getpid(), tag))
}

// setupReps is how many times an untraced run sets the cluster up; it
// reports the median, so one slow set-up does not move setup_s.
const setupReps = 5

// runUntraced sets up setupReps times, keeps the last cluster and
// measures it for d. It returns the end-to-end metrics.
func runUntraced(w *workload, seed uint64, c *content, root string, d time.Duration, reps int) (*outcome, []metric, error) {
	var times []float64
	var r *runner
	for i := 0; i < reps; i++ {
		ri, t, err := setUp(w, seed, c, runDir(root, fmt.Sprint(i)), nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t.Seconds())
		if i < reps-1 {
			if err := ri.close(); err != nil {
				return nil, nil, fmt.Errorf("tear down: %w", err)
			}
			continue
		}
		r = ri
	}
	defer r.close()
	if err := w.measure(r, d); err != nil {
		return nil, nil, err
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	note := fmt.Sprintf("median of %d set-ups:", reps)
	for _, t := range times {
		note += fmt.Sprintf(" %.4f", t)
	}
	out := &outcome{info: map[string]float64{}}
	out.add(r)
	e2e := r.endToEnd(sorted[len(sorted)/2], note)
	if w.cacheSize > 0 {
		out.info["cache.hit_ratio"] = ratio(r.delta["cache.hits"], r.delta["cache.hits"]+r.delta["cache.misses"])
	}
	return out, e2e, nil
}
