package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"swift/internal/obs"
)

// traceAnalysis is the self-time accounting of a traced run's windows.
// A layer's self time is its span's duration minus the part of that
// interval its children cover:
//
//   - a client op ("read"/"write" root span) is covered by the agent
//     spans of its trace and by the client socket calls (send, and the
//     wait in receive) of the file it names;
//   - an agent serve span is covered by the store calls of its agent.
//
// Two goroutines' ops on different files never share sockets, so the
// socket attribution is exact; two sessions served at once on one agent
// share its store log, so an agent's self time is a lower bound when
// its sessions overlap.
type traceAnalysis struct {
	ops, serves       int
	opTotal, opSelf   float64 // seconds
	srvTotal, srvSelf float64
	spans             int
	dumpPath          string
}

type spanRec struct {
	obs.SpanRecord
	trace uint64
}

// analyze runs the accounting over r's windows and writes every span of
// them to a JSON-lines file under root.
func analyze(r *runner, root string) (*traceAnalysis, error) {
	pr := r.c.pr
	clk := pr.clk
	var wins []interval
	for _, w := range r.windows {
		wins = append(wins, interval{clk.ns(w.start), clk.ns(w.end)})
	}
	inWindow := func(t int64) bool {
		for _, w := range wins {
			if t >= w.start && t < w.end {
				return true
			}
		}
		return false
	}

	byID := map[uint64]*spanRec{}
	byTrace := map[uint64][]*spanRec{}
	var kept []*spanRec
	for _, tr := range pr.tracer.Traces() {
		for _, s := range tr.Spans {
			rec := &spanRec{SpanRecord: s, trace: tr.TraceID}
			byID[s.SpanID] = rec
			byTrace[tr.TraceID] = append(byTrace[tr.TraceID], rec)
			if inWindow(clk.ns(s.Start)) {
				kept = append(kept, rec)
			}
		}
	}
	storeLogs := make([]sortedLog, len(pr.stores))
	for i, s := range pr.stores {
		storeLogs[i].ivs, storeLogs[i].maxDur = s.log.sorted()
	}
	sockLogs := map[string]sortedLog{}
	for label, l := range pr.client.logs {
		var sl sortedLog
		sl.ivs, sl.maxDur = l.sorted()
		sockLogs[label] = sl
	}

	a := &traceAnalysis{spans: len(kept)}
	for _, s := range kept {
		lo := clk.ns(s.Start)
		hi := lo + int64(s.Dur)
		switch {
		case s.Parent == 0 && s.Layer == "core" && (s.Name == "read" || s.Name == "write"):
			var cover []interval
			for _, c := range byTrace[s.trace] {
				if c.Layer == "agent" {
					cl := clk.ns(c.Start)
					cover = append(cover, interval{cl, cl + int64(c.Dur)})
				}
			}
			if len(s.Notes) > 0 {
				if name, _, ok := strings.Cut(s.Notes[0].Msg, " ["); ok {
					cover = sockLogs[name].within(lo, hi, cover)
				}
			}
			a.ops++
			a.opTotal += s.Dur.Seconds()
			a.opSelf += float64(int64(s.Dur)-unionWithin(cover, lo, hi)) / 1e9
		case s.Layer == "agent" && (s.Name == "agent_read_serve" || s.Name == "agent_write_serve"):
			var cover []interval
			if p := byID[s.Parent]; p != nil && p.Agent >= 0 && p.Agent < len(storeLogs) {
				cover = storeLogs[p.Agent].within(lo, hi, nil)
			}
			a.serves++
			a.srvTotal += s.Dur.Seconds()
			a.srvSelf += float64(int64(s.Dur)-unionWithin(cover, lo, hi)) / 1e9
		}
	}
	path, err := dumpSpans(root, r, kept, clk)
	if err != nil {
		return nil, err
	}
	a.dumpPath = path
	return a, nil
}

// sortedLog is an interval log ordered by start.
type sortedLog struct {
	ivs    []interval
	maxDur int64
}

// within appends to dst the intervals that overlap [lo, hi).
func (l sortedLog) within(lo, hi int64, dst []interval) []interval {
	i := sort.Search(len(l.ivs), func(i int) bool { return l.ivs[i].start >= lo-l.maxDur })
	for ; i < len(l.ivs) && l.ivs[i].start < hi; i++ {
		if l.ivs[i].end > lo {
			dst = append(dst, l.ivs[i])
		}
	}
	return dst
}

// unionWithin is the length of the union of ivs clipped to [lo, hi).
func unionWithin(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv.start, end), min(iv.end, hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// dumpSpans writes the spans as JSON lines: name, layer, start and end
// in microseconds since the run's epoch, span and parent ids, and the op
// (trace) id that groups one client call's spans.
func dumpSpans(root string, r *runner, spans []*spanRec, clk clock) (string, error) {
	dir := filepath.Join(root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.jsonl", r.w.name, r.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		start := clk.ns(s.Start)
		line := struct {
			Name   string  `json:"name"`
			Layer  string  `json:"layer"`
			Start  float64 `json:"start_us"`
			End    float64 `json:"end_us"`
			Span   uint64  `json:"span"`
			Parent uint64  `json:"parent"`
			Op     uint64  `json:"op"`
			Agent  int     `json:"agent"`
		}{s.Name, s.Layer, float64(start) / 1e3, float64(start+int64(s.Dur)) / 1e3, s.SpanID, s.Parent, s.trace, s.Agent}
		if err := enc.Encode(&line); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTable renders the per-layer self-time and count table.
func selfTable(r *runner, a *traceAnalysis) []string {
	d := r.delta
	row := func(layer string, n float64, total, self float64) string {
		mean := ratio(self*1e3, n)
		return fmt.Sprintf("  %-22s %10.0f %10.4f %10.4f %12.4f", layer, n, total, self, mean)
	}
	return []string{
		fmt.Sprintf("  %-22s %10s %10s %10s %12s", "layer", "count", "total_s", "self_s", "mean_self_ms"),
		row("core op (read/write)", float64(a.ops), a.opTotal, a.opSelf),
		row("agent serve", float64(a.serves), a.srvTotal, a.srvSelf),
		row("store call", d["store.read_calls"]+d["store.write_calls"], d["store.busy_s"], d["store.busy_s"]),
		row("transport send", d["net.pkts"], d["net.send_s"], d["net.send_s"]),
		row("transport recv (client)", d["net.client_recv_calls"], d["net.client_recv_s"], d["net.client_recv_s"]),
		row("ec encode", d["ec.encode_calls"], d["ec.encode_s"], d["ec.encode_s"]),
		row("ec reconstruct", d["ec.reconstruct_calls"], d["ec.reconstruct_s"], d["ec.reconstruct_s"]),
	}
}

// runTraced measures w twice for d/2 each: once untraced and once with
// every layer wrapped and the tracer on. It returns the per-layer
// metrics of the traced half and reports the tracing overhead as the
// traced minus the untraced end-to-end numbers.
func runTraced(w *workload, seed uint64, c *content, root string, d time.Duration) (*outcome, error) {
	base, baseE2E, err := runUntraced(w, seed, c, root, d/2, 1)
	if err != nil {
		return nil, err
	}
	pr := newProbes()
	r, setup, err := setUp(w, seed, c, runDir(root, "traced"), pr)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := w.measure(r, d/2); err != nil {
		return nil, err
	}
	a, err := analyze(r, root)
	if err != nil {
		return nil, fmt.Errorf("trace analysis: %w", err)
	}
	out := &outcome{info: base.info}
	out.attempted, out.failed, out.firstErr = base.attempted, base.failed, base.firstErr
	out.add(r)
	out.metrics = r.perLayer(a)
	if bad := r.delta["wire.bad_pkts"]; bad > 0 {
		out.report = append(out.report, fmt.Sprintf("warning: %.0f sent datagrams did not decode with wire.Unmarshal", bad))
	}
	out.report = append(out.report, "self time and counts of the traced windows:")
	out.report = append(out.report, selfTable(r, a)...)
	out.report = append(out.report,
		fmt.Sprintf("spans: %d written to %s", a.spans, a.dumpPath),
		"tracing overhead (traced minus untraced, each measured for half the run):")
	traced := r.endToEnd(setup.Seconds(), "one set-up")
	for i, m := range traced {
		b := baseE2E[i]
		out.report = append(out.report, fmt.Sprintf("  %-16s untraced %12.4f  traced %12.4f  diff %+12.4f %-6s (%+.1f%%)",
			m.name, b.value, m.value, m.value-b.value, m.unit, 100*ratio(m.value-b.value, b.value)))
	}
	return out, nil
}
