// Command perfbench measures the software cost of the Swift store: an
// in-process deployment (storage agents over file stores, one client)
// on loopback UDP, driven by three seeded closed-loop workloads. See
// README.md beside this file for the workloads, the metrics and how to
// run it.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh steady -runs 5 -workloads ec-degraded
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// a call failed or read back wrong bytes, or the run could not be made.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: stream, ec-degraded or mixed-small")
	seed := fs.Uint64("seed", 1, "seed for contents, offsets, sizes and popularity")
	seconds := fs.Float64("seconds", 10, "seconds of measured traffic")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "directory under whose .bench_build/ the stores and span dumps go")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	out, err := run(w, *seed, *seconds, *trace == 1, *root, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if out.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d calls wrong, first: %v\n", out.failed, out.attempted, out.firstErr)
		return 1
	}
	return 0
}

// run measures one workload and prints the report and the result line.
func run(w *workload, seed uint64, seconds float64, traced bool, root string, stdout io.Writer) (*outcome, error) {
	d := time.Duration(seconds * float64(time.Second))
	c := newContent(seed)
	if err := os.MkdirAll(filepath.Join(root, ".bench_build", "run"), 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", w.name, seed, seconds, traced)
	fmt.Fprintf(stdout, "# env %s\n", envHeader(root))
	var out *outcome
	var err error
	if traced {
		out, err = runTraced(w, seed, c, root, d)
	} else {
		var e2e []metric
		out, e2e, err = runUntraced(w, seed, c, root, d, setupReps)
		if err == nil {
			out.metrics = e2e
		}
	}
	if err != nil {
		return nil, err
	}
	for _, m := range out.metrics {
		fmt.Fprintf(stdout, "%-28s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, l := range out.report {
		fmt.Fprintln(stdout, l)
	}
	if len(out.info) > 0 {
		b, _ := json.Marshal(out.info) // a map of floats always marshals
		fmt.Fprintf(stdout, "# info %s\n", b)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for _, m := range out.metrics {
		if unreported[m.name] {
			continue
		}
		res.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(stdout, string(b))
	return out, nil
}

// unreported lists the metrics printed in the report only: error_rate
// is 0 on a correct run (the result line's failed and attempted carry
// it), and the two EC times read 0 on every run of the workloads without
// parity.
var unreported = map[string]bool{"error_rate": true, "ec.encode_s": true, "ec.reconstruct_s": true}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// envHeader describes the machine and the settings a result was taken
// with, so two results can be checked for comparability.
func envHeader(root string) string {
	var uts syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&uts) == nil {
		kernel = utsString(uts.Sysname[:]) + " " + utsString(uts.Release[:])
	}
	return fmt.Sprintf("gomaxprocs=%d nproc=%d cpu=%q go=%s kernel=%q store_fs=%s commit=%s flush=%q",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), kernel,
		fsType(filepath.Join(root, ".bench_build")), commit(root),
		"SyncWrites off on client and agents; reads are likely served from the OS page cache")
}

func utsString(b []int8) string {
	var s strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		s.WriteByte(byte(c))
	}
	return s.String()
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the file system holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x9123683E: "btrfs", 0x58465342: "xfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit reads the checked-out commit from root/.git, if there is one.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(l, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown (" + ref + ")"
}
