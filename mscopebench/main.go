// Command mscopebench is the repository's benchmark. It generates the
// shared dbio corpus from a seed with the in-repo simulator, drives one
// workload through milliScope's entry points, checks every output, and
// prints its metrics by name with their units. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash mscopebench/run.sh --workload batch --seed 17 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of a timed run with
// tracing off; with --trace 1 it makes a separate traced run that times
// each call into a layer and prints the per-layer metrics. --steady N
// runs the workload N times, each in its own process with seed, seed+1,
// ..., and prints every metric's median, quartiles and spread. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// workload is one traffic mix. e2e runs the timed, untraced measurement;
// drive runs one fixed unit of the workload for the traced run, adds its
// per-layer metrics and returns the operations it performed.
type workload struct {
	name  string
	e2e   func(e *env) (*outcome, error)
	drive func(e *env, parent int, m *metricSet) (int64, error)
}

// Each workload puts a different set of layers to work, so a change to
// one layer shows on one workload and not on the others.
var workloads = []workload{
	// parsers, transform and mscopedb writes; no stream, wire or serve.
	{"batch", runBatch, driveBatch},
	// stream: tailer, appender, watermark and detector, with a reader
	// querying the warehouse the loader is writing.
	{"live", runLive, driveLive},
	// agentd, wire and collector on top of the same stream appender.
	{"dist", runDist, driveDist},
	// mscopedb reads, mql, tracegraph and serve; no ingest layer.
	{"query", runQuery, driveQuery},
}

// env is what every workload gets.
type env struct {
	seed    int64
	seconds time.Duration
	work    string // scratch directory under .bench_build in the working directory
	corp    *corpus
	tr      *tracer
}

// outcome is what an end-to-end run reports back; main turns it into the
// shared metrics.
type outcome struct {
	ops, failed int64         // operations attempted and failed while measured
	wall        time.Duration // measured wall time
	cpu         time.Duration // process CPU time while measured
	setups      []time.Duration
	keep        any // the warehouse, referenced through the forced GC
	checks      []string
}

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
}

// setupRuns is the least number of cold starts whose median is setup_s.
// live and dist take them before the warm-up.
const setupRuns = 51

// coldPerUnit is the number of cold starts batch and query take before
// every unit of the measured phase. Their set-up is short enough (0.5-6
// ms) that a burst of starts reads the host's state of the moment;
// spread through the run, the median reads the whole run. A run with too
// few units for setupRuns starts makes up the rest after its phase.
const coldPerUnit = 4

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: batch, live, dist or query")
		seed    = flag.Int64("seed", 17, "corpus seed")
		seconds = flag.Int("seconds", 20, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 makes the traced run that prints per-layer metrics")
		steady  = flag.Int("steady", 0, "run the workload N times with successive seeds and print each metric's spread")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "mscopebench: need --workload batch|live|dist|query, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	if *steady > 0 {
		return steadiness(*name, *seed, *seconds, *trace, *steady)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mscopebench:", err)
		return 1
	}
	work := filepath.Join(cwd, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mscopebench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d nproc=%d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	t0 := time.Now()
	corp, err := makeCorpus(*seed, filepath.Join(work, "corpus"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mscopebench:", err)
		return 1
	}
	fmt.Printf("corpus: %d records in %d logs, generated in %v\n", corp.records(), len(corp.Files), time.Since(t0).Round(time.Millisecond))
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second, work: work, corp: corp,
		tr: newTracer(false, fmt.Sprintf("%s-%d", w.name, *seed))}

	var res result
	if *trace == 1 {
		res, err = tracedRun(e, w, cwd)
	} else {
		res, err = e2eRun(e, w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mscopebench:", err)
		return 1
	}
	for _, m := range res.metrics.list {
		if m.N > 0 {
			fmt.Printf("%-34s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Printf("%-34s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, c := range res.checks {
		fmt.Println("CHECK FAILED:", c)
	}
	out := map[string]any{
		"correct":   len(res.checks) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics.json(),
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mscopebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(res.checks) > 0 {
		return 1
	}
	return 0
}

type result struct {
	attempted, failed int64
	metrics           metricSet
	checks            []string
}

func (m *metricSet) json() map[string]any {
	out := make(map[string]any, len(m.list))
	for _, x := range m.list {
		v := x.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[x.Name] = map[string]any{"value": v, "unit": x.Unit}
	}
	return out
}

// e2eRun is the timed run with tracing off. Every workload reports the
// same five metrics, each defined on that workload's own operations.
func e2eRun(e *env, w *workload) (result, error) {
	o, err := w.e2e(e)
	if err != nil {
		return result{}, err
	}
	var r result
	r.attempted, r.failed, r.checks = o.ops, o.failed, o.checks
	if o.ops < 1 || o.wall <= 0 {
		return r, fmt.Errorf("%s measured no operations", w.name)
	}
	runtime.GC()
	heap := liveHeapBytes()
	runtime.KeepAlive(o.keep)
	if err := r.metrics.addPct("setup_s", "s", secondsOf(o.setups), 0.5); err != nil {
		return r, err
	}
	r.metrics.add("ops_per_s", "1/s", float64(o.ops)/o.wall.Seconds(), int(o.ops))
	r.metrics.add("cpu_ms_per_kop", "ms", ms(o.cpu)/float64(o.ops)*1000, int(o.ops))
	r.metrics.add("heap_retained_mb", "MB", float64(heap)/(1<<20), 0)
	r.metrics.add("success_ratio", "ratio", float64(o.ops-o.failed)/float64(o.ops), int(o.ops))
	return r, nil
}

// tracedRun times one unit of the chosen workload untraced, after an
// untimed warm-up unit, and then traced; their ratio is the tracing
// overhead. It then drives the other workloads and the direct layer
// probes traced, so every per-layer metric is measured in every traced
// run. A failed check is an error here.
func tracedRun(e *env, w *workload, cwd string) (result, error) {
	var r result
	var scratch metricSet
	// The query warehouse is preparation; build it before anything is timed.
	if _, err := e.queryWarehouse(); err != nil {
		return r, err
	}
	// The first untraced unit warms the process up and is not timed.
	var untraced time.Duration
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		if _, err := w.drive(e, 0, &scratch); err != nil {
			return r, fmt.Errorf("untraced %s drive: %w", w.name, err)
		}
		untraced = time.Since(t0)
	}

	e.tr = newTracer(true, e.tr.run)
	rt0 := readRuntime()
	root := e.tr.begin(w.name+".drive", 0)
	ops, err := w.drive(e, root, &r.metrics)
	e.tr.end(root)
	if err != nil {
		return r, fmt.Errorf("traced %s drive: %w", w.name, err)
	}
	readRuntime().sub(rt0).report(&r.metrics, ops)
	spans := e.tr.snapshot()
	r.metrics.add("trace.overhead_ratio", "ratio", spans[root-1].dur().Seconds()/untraced.Seconds()-1, 0)
	r.metrics.add("trace.unattributed_ms", "ms", ms(unattributed(spans, root)), 0)
	r.attempted = ops

	for i := range workloads {
		o := &workloads[i]
		if o.name == w.name {
			continue
		}
		id := e.tr.begin(o.name+".drive", 0)
		_, err := o.drive(e, id, &r.metrics)
		e.tr.end(id)
		if err != nil {
			return r, fmt.Errorf("traced %s drive: %w", o.name, err)
		}
	}
	id := e.tr.begin("probes", 0)
	err = probeLayers(e, id, &r.metrics)
	e.tr.end(id)
	if err != nil {
		return r, fmt.Errorf("layer probes: %w", err)
	}
	spansPath := filepath.Join(cwd, ".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, e.seed))
	if err := e.tr.write(spansPath); err != nil {
		return r, err
	}
	fmt.Printf("spans: %d written to %s\n", len(e.tr.snapshot()), spansPath)
	return r, nil
}

// checkDiagnose runs Diagnose once over the warehouse a workload built
// and checks its verdicts.
func checkDiagnose(o *outcome, c *corpus, path string, db *mscopedb.DB) error {
	d, err := core.Diagnose(db, diagWindow)
	if err != nil {
		return fmt.Errorf("diagnose %s warehouse: %w", path, err)
	}
	o.checks = append(o.checks, checkVerdicts(c, path+" diagnose", verdictsOf(d.Windows))...)
	return nil
}

func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// coldStarts times n cold starts of fn (none when n <= 0) and adds them
// to o.setups. The files the run has written so far are flushed to disk
// first, so no start waits on their writeback, and each start begins
// after a forced GC, so no start pays for garbage an earlier step of the
// run left behind.
func (o *outcome) coldStarts(n int, fn func() (time.Duration, error)) error {
	if n <= 0 {
		return nil
	}
	syscall.Sync()
	for i := 0; i < n; i++ {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return fmt.Errorf("cold start %d: %w", len(o.setups), err)
		}
		o.setups = append(o.setups, d)
	}
	return nil
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase runs the measured phase: unit, repeated until the measured time
// reaches d (and at least once). unit returns the time it measured
// itself. before, when not nil, runs ahead of every unit and is not
// measured. Each unit starts after a forced GC that is not measured, so
// no unit pays for the garbage of the one before; cpu is the process CPU
// time spent inside the units.
func phase(d time.Duration, before func() error, unit func() (time.Duration, error)) (wall, cpu time.Duration, err error) {
	for n := 0; n == 0 || wall < d; n++ {
		if before != nil {
			if err := before(); err != nil {
				return 0, 0, err
			}
		}
		runtime.GC()
		c0 := processCPU()
		w, err := unit()
		if err != nil {
			return 0, 0, err
		}
		cpu += processCPU() - c0
		wall += w
	}
	return wall, cpu, nil
}

// liveHeapBytes is the heap the last GC marked live.
func liveHeapBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeStats is a reading of the Go runtime's own counters.
type runtimeStats struct {
	gcCycles   uint64
	allocBytes uint64
	pauseSec   float64
}

// readAllocs is the number of heap objects allocated so far.
func readAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var r runtimeStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			r.pauseSec += float64(c) * (lo + hi) / 2
		}
	}
	return r
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.gcCycles - b.gcCycles, a.allocBytes - b.allocBytes, a.pauseSec - b.pauseSec}
}

func (a runtimeStats) report(m *metricSet, ops int64) {
	m.add("runtime.gc_cycles", "count", float64(a.gcCycles), 0)
	m.add("runtime.gc_pause_ms", "ms", a.pauseSec*1000, 0)
	if ops < 1 {
		ops = 1
	}
	m.add("runtime.alloc_bytes_per_op", "B", float64(a.allocBytes)/float64(ops), 0)
}

// steadiness runs the workload n times, each in a child process with its
// own seed, and prints every metric's median, quartiles, IQR/median and
// (max-min)/median.
func steadiness(name string, seed int64, seconds, trace, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mscopebench:", err)
		return 1
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	var order []string
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mscopebench: seed %d: %v\n%s", s, err, out)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
			fmt.Fprintf(os.Stderr, "mscopebench: seed %d: bad result %q\n", s, lines[len(lines)-1])
			return 1
		}
		for k, v := range res.Metrics {
			if _, ok := units[k]; !ok {
				order = append(order, k)
				units[k] = v.Unit
			}
			vals[k] = append(vals[k], v.Value)
		}
		fmt.Printf("seed %d done\n", s)
	}
	sort.Strings(order)
	fmt.Printf("%-34s %12s %12s %12s %8s %8s  (%s, %d runs)\n", "metric", "q1", "median", "q3", "iqr/med", "rng/med", name, n)
	for _, k := range order {
		xs := vals[k]
		q1, q2, q3 := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		rel := func(d float64) float64 {
			if q2 == 0 {
				return 0
			}
			return math.Abs(d / q2)
		}
		fmt.Printf("%-34s %12.4f %12.4f %12.4f %8.4f %8.4f %s\n", k, q1, q2, q3, rel(q3-q1), rel(hi-lo), units[k])
	}
	return 0
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
