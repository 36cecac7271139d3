package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// steadyMain runs each workload several times, each in a fresh process
// with its own seed, and prints every metric's median, quartiles and
// spread (q3-q1)/median, so bounds can be set from data. It flags each
// metric whose spread is above a third of its bound in BENCHMARK.json,
// and the two hazards seen while building the benchmark: a wide
// ec-degraded write spread and a bimodal mixed-small read_p50_ms.
func steadyMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runs := fs.Int("runs", 10, "runs per workload")
	names := fs.String("workloads", "stream,ec-degraded,mixed-small", "comma-separated workloads")
	seconds := fs.Float64("seconds", 30, "seconds of measured traffic per run")
	seed0 := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	root := fs.String("root", ".", "repository root (BENCHMARK.json is read from here)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bounds := readBounds(filepath.Join(*root, "BENCHMARK.json"))
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench steady:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# env %s\n", envHeader(*root))
	code := 0
	for _, name := range strings.Split(*names, ",") {
		var results []result
		var infos []map[string]float64
		for i := 0; i < *runs; i++ {
			seed := *seed0 + uint64(i)
			cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "-trace", "0", "-root", *root)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "perfbench steady: %s seed %d: %v\n", name, seed, err)
				code = 1
				continue
			}
			res, info, err := parseRun(out.Bytes())
			if err != nil {
				fmt.Fprintf(stderr, "perfbench steady: %s seed %d: %v\n", name, seed, err)
				code = 1
				continue
			}
			results = append(results, res)
			infos = append(infos, info)
		}
		report(stdout, name, results, infos, bounds)
	}
	return code
}

// parseRun extracts the result line and the "# info" line of one run.
func parseRun(out []byte) (result, map[string]float64, error) {
	var res result
	info := map[string]float64{}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if js, ok := strings.CutPrefix(l, "# info "); ok {
			if err := json.Unmarshal([]byte(js), &info); err != nil {
				return res, nil, fmt.Errorf("info line: %w", err)
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return res, nil, fmt.Errorf("run reported incorrect output")
	}
	return res, info, nil
}

// readBounds returns each end-to-end metric's bound, or an empty map.
func readBounds(path string) map[string]float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return map[string]float64{}
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := map[string]float64{}
	if json.Unmarshal(b, &spec) == nil {
		for _, m := range spec.EndToEnd {
			out[m.Name] = m.Bound
		}
	}
	return out
}

// quartiles matches Python's statistics.quantiles(data, n=4), whose
// default method is "exclusive".
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func report(w io.Writer, name string, results []result, infos []map[string]float64, bounds map[string]float64) {
	fmt.Fprintf(w, "workload %s: %d runs\n", name, len(results))
	if len(results) == 0 {
		return
	}
	var keys []string
	for k := range results[0].Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "  %-28s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
	// limit is the spread a metric may show: a third of its bound, or of
	// the largest bound allowed when BENCHMARK.json names none.
	limit := func(k string) float64 {
		if b, ok := bounds[k]; ok {
			return b / 3
		}
		return 0.25 / 3
	}
	series := map[string][]float64{}
	for _, k := range keys {
		var vs []float64
		for _, r := range results {
			vs = append(vs, r.Metrics[k].Value)
		}
		series[k] = vs
		q1, _, q3 := quartiles(vs)
		med := median(vs)
		spread := ratio(q3-q1, med)
		flag := ""
		if k != "setup_s" && spread > limit(k) {
			s := append([]float64(nil), vs...)
			sort.Float64s(s)
			flag = fmt.Sprintf("UNSTEADY: spread above a third of the bound; runs %.4g", s)
		}
		fmt.Fprintf(w, "  %-28s %12.5g %12.5g %12.5g %8.4f %6.3g %s\n", k, med, q1, q3, spread, bounds[k], flag)
	}
	if vs := series["write_MBps"]; name == "ec-degraded" && len(vs) > 1 {
		q1, _, q3 := quartiles(vs)
		if s := ratio(q3-q1, median(vs)); s > limit("write_MBps") {
			fmt.Fprintf(w, "  HAZARD ec-degraded write_MBps spread %.3f: RS encode and 5/3 the packet volume compete for the CPUs with the rest of the machine; lengthen the run before trusting a write change\n", s)
		}
	}
	if name == "mixed-small" {
		var hr []float64
		for _, in := range infos {
			hr = append(hr, in["cache.hit_ratio"])
		}
		if len(hr) > 0 {
			h := median(hr)
			if h > 0.35 && h < 0.65 {
				fmt.Fprintf(w, "  HAZARD mixed-small cache hit ratio %.3f is near 0.5: read_p50_ms can flip between the hit and the miss mode\n", h)
			}
		}
		if vs := series["read_p50_ms"]; bimodal(vs) {
			fmt.Fprintf(w, "  HAZARD mixed-small read_p50_ms is bimodal across runs: %v\n", vs)
		}
	}
}

// bimodal reports whether the sorted values split into two groups with
// a gap between neighbours larger than half the median.
func bimodal(v []float64) bool {
	if len(v) < 4 {
		return false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := median(s)
	for i := 1; i < len(s); i++ {
		if s[i]-s[i-1] > med/2 && i >= 2 && len(s)-i >= 2 {
			return true
		}
	}
	return false
}
