// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload in a single process — the load generator, the serving
// fleet and the publisher side by side — checks the outputs, and prints
// every metric BENCHMARK.json declares:
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 the same workload runs again with
// spans recorded around every call into a layer and the JSON carries the
// per-layer metrics. The lines before it are a human-readable report.
// See perfbench/METRICS.md for what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// spec is the part of BENCHMARK.json this program reads: the metric names
// and units it must report.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is one workload invocation's shared state: its options, the
// metrics it has produced and the output checks that failed.
type run struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // scratch directory, removed at exit

	values    map[string]float64
	units     map[string]string // units of values BENCHMARK.json does not declare
	counts    map[string]int    // sample count behind a value, for the report
	problems  []string
	attempted int
	failed    int
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) setN(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// put records a value the report prints but BENCHMARK.json does not
// declare, such as a workload-specific name for a generic metric.
func (r *run) put(name, unit string, v float64, n int) {
	r.setN(name, v, n)
	r.units[name] = unit
}

// check records a failed output check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// budget returns the share of the run's measuring time given to a phase.
func (r *run) budget(share float64) time.Duration {
	return time.Duration(r.seconds * share * float64(time.Second))
}

var workloads = map[string]func(*run) error{
	"train":        runTrain,
	"read-routed":  runReadRouted,
	"ingest-fresh": runIngestFresh,
}

func main() {
	workload := flag.String("workload", "", "workload to run: train, read-routed or ingest-fresh")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measuring time of the run")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for the run's scratch files")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *traceFlag == 1, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed uint64, seconds float64, trace bool, dir string) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	r := &run{
		seed: seed, seconds: seconds, trace: trace, dir: scratch,
		values: map[string]float64{}, units: map[string]string{}, counts: map[string]int{},
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", workload, seed, seconds, trace)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s placement=one-process scratch-fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(scratch))
	if err := fn(r); err != nil {
		return fmt.Errorf("workload %s: %w", workload, err)
	}
	if _, ok := r.values["peak_rss_mb"]; !ok {
		r.set("peak_rss_mb", peakRSSMB())
	}

	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	want := sp.EndToEnd
	if trace {
		want = sp.PerLayer
	}
	var missing []string
	for _, m := range want {
		v, ok := r.values[m.Name]
		if !ok {
			if !trace {
				missing = append(missing, m.Name)
				continue
			}
			v = 0 // a layer this workload does not exercise did no work
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is not a finite number (%v)", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	report(r, want)
	if len(missing) > 0 {
		return fmt.Errorf("workload %s did not produce %s", workload, strings.Join(missing, ", "))
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload %s attempted no operation", workload)
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return fmt.Errorf("%d output checks failed", len(r.problems))
	}
	return nil
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &sp, nil
}

// report prints the declared metrics first and every other value the
// workload produced after them, each with its sample count when known.
func report(r *run, declared []metricSpec) {
	seen := map[string]bool{}
	line := func(name, unit string) {
		v, ok := r.values[name]
		if !ok {
			return
		}
		n := ""
		if c, ok := r.counts[name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("  %-34s %14.4f %s%s\n", name, v, unit, n)
	}
	fmt.Println("metrics:")
	for _, m := range declared {
		seen[m.Name] = true
		line(m.Name, m.Unit)
	}
	var extra []string
	for name := range r.values {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		fmt.Println("also measured:")
		for _, name := range extra {
			line(name, r.units[name])
		}
	}
	fmt.Printf("operations: attempted %d, failed %d\n", r.attempted, r.failed)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// fsType names the filesystem holding dir; fsync on the journal and the
// snapshot files sits on the freshness path, so it matters.
func fsType(dir string) string {
	var st syscall.Statfs_t
	abs, _ := filepath.Abs(dir)
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x65735546: "fuse",
	}
	name, ok := names[int64(st.Type)]
	if !ok {
		name = fmt.Sprintf("0x%x", st.Type)
	}
	return name + " at " + abs
}
