package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/transform"
)

// diagWindow is the PIT window width every Diagnose call uses.
const diagWindow = 50 * time.Millisecond

// batchPass is one batch operation: open a fresh durable warehouse in
// dir, ingest the corpus with the given worker count, checkpoint, and
// diagnose.
type batchPass struct {
	db         *mscopedb.DB
	rows       int64 // rows loaded
	quarantine int64
	ingest     time.Duration
	checkpoint time.Duration
	diagnose   time.Duration
	total      time.Duration
	checks     []string
}

func runBatchPass(e *env, parent int, dir string, workers int, diagnose bool) (*batchPass, error) {
	p := &batchPass{}
	var err error
	t0 := time.Now()
	e.tr.do("mscopedb.open", parent, func() {
		p.db, err = mscopedb.OpenDir(filepath.Join(dir, "wh"), mscopedb.StoreOptions{})
	})
	if err != nil {
		return nil, err
	}
	var rep transform.Report
	t1 := time.Now()
	e.tr.do("transform.ingest", parent, func() {
		rep, err = transform.IngestDirWithOptions(p.db, e.corp.Dir, filepath.Join(dir, "work"),
			transform.DefaultPlan(), transform.Options{Workers: workers})
	})
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	p.ingest = time.Since(t1)
	t2 := time.Now()
	e.tr.do("mscopedb.checkpoint", parent, func() { err = p.db.Checkpoint() })
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	p.checkpoint = time.Since(t2)
	p.rows = int64(rep.TotalRows())
	p.quarantine = int64(rep.TotalQuarantined())
	p.checks = append(p.checks, checkTables(e.corp, tableRows(p.db))...)
	if p.quarantine != 0 {
		p.checks = append(p.checks, fmt.Sprintf("batch quarantined %d records", p.quarantine))
	}
	if diagnose {
		var d *core.Diagnosis
		t3 := time.Now()
		e.tr.do("core.diagnose", parent, func() { d, err = core.Diagnose(p.db, diagWindow) })
		if err != nil {
			return nil, fmt.Errorf("diagnose: %w", err)
		}
		p.diagnose = time.Since(t3)
		p.checks = append(p.checks, checkVerdicts(e.corp, "batch", verdictsOf(d.Windows))...)
	}
	p.total = time.Since(t0)
	return p, nil
}

func runBatch(e *env) (*outcome, error) {
	o := &outcome{}
	workers := runtime.GOMAXPROCS(0)
	n := 0
	fresh := func() string {
		n++
		return filepath.Join(e.work, fmt.Sprintf("batch-%d", n))
	}
	// One untimed warm-up pass.
	dir := fresh()
	if _, err := runBatchPass(e, 0, dir, workers, true); err != nil {
		return nil, err
	}
	want := int64(e.corp.records())
	var last *batchPass
	// Set-up is opening a fresh durable warehouse: create the store and
	// commit its first (empty) checkpoint. That is mostly two fsyncs, whose
	// latency drifts with the disk's other traffic, so the cold starts are
	// spread through the run: coldPerUnit of them before every measured
	// pass, once the previous warehouse is removed.
	start := func() (time.Duration, error) {
		cold := fresh()
		t0 := time.Now()
		db, err := mscopedb.OpenDir(cold, mscopedb.StoreOptions{})
		if err != nil {
			return 0, err
		}
		if err := db.Checkpoint(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		return d, os.RemoveAll(cold)
	}
	before := func() error {
		// Dropping the previous warehouse is not part of a pass.
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		return o.coldStarts(coldPerUnit, start)
	}
	var err error
	o.wall, o.cpu, err = phase(e.seconds, before, func() (time.Duration, error) {
		dir = fresh()
		p, err := runBatchPass(e, 0, dir, workers, true)
		if err != nil {
			return 0, err
		}
		o.ops += want
		o.failed += max64(want-p.rows, 0) + p.quarantine
		o.checks = append(o.checks, p.checks...)
		last = p
		return p.total, nil
	})
	if err != nil {
		return nil, err
	}
	o.keep = last.db
	return o, o.coldStarts(setupRuns-len(o.setups), start)
}

// driveBatch is one traced batch pass plus a single-worker pass for the
// serial baseline.
func driveBatch(e *env, parent int, m *metricSet) (int64, error) {
	dir := filepath.Join(e.work, "drive-batch")
	defer os.RemoveAll(dir)
	a0 := readRuntime()
	p, err := runBatchPass(e, parent, dir, runtime.GOMAXPROCS(0), true)
	if err != nil {
		return 0, err
	}
	alloc := readRuntime().sub(a0).allocBytes
	if len(p.checks) > 0 {
		return 0, fmt.Errorf("batch checks: %v", p.checks)
	}
	segs, bytes, err := storeSize(filepath.Join(dir, "wh"))
	if err != nil {
		return 0, err
	}
	m.add("batch.rows_per_s", "1/s", float64(p.rows)/(p.ingest+p.checkpoint).Seconds(), int(p.rows))
	m.add("transform.ingest_ms", "ms", ms(p.ingest), 0)
	m.add("transform.ns_per_row", "ns", float64(p.ingest.Nanoseconds())/float64(p.rows), int(p.rows))
	m.add("transform.alloc_bytes_per_row", "B", float64(alloc)/float64(p.rows), int(p.rows))
	m.add("transform.quarantined", "count", float64(p.quarantine), 0)
	m.add("mscopedb.checkpoint_ms", "ms", ms(p.checkpoint), 0)
	m.add("mscopedb.segments", "count", float64(segs), 0)
	m.add("mscopedb.disk_bytes", "B", float64(bytes), 0)
	m.add("mscopedb.disk_bytes_per_row", "B", float64(bytes)/float64(p.rows), int(p.rows))
	m.add("batch.diagnose_ms", "ms", ms(p.diagnose), 0)

	dir1 := filepath.Join(e.work, "drive-batch-w1")
	defer os.RemoveAll(dir1)
	p1, err := runBatchPass(e, parent, dir1, 1, false)
	if err != nil {
		return 0, err
	}
	m.add("transform.rows_per_s_w1", "1/s", float64(p1.rows)/p1.ingest.Seconds(), int(p1.rows))
	return p.rows, nil
}

// storeSize reads the committed segment count and bytes from a store's
// manifest: only what a reopen would see counts.
func storeSize(dir string) (segs int, bytes int64, err error) {
	var man struct {
		Tables []struct {
			Segments []struct {
				Bytes int64 `json:"bytes"`
			} `json:"segments"`
		} `json:"tables"`
	}
	if err := readJSONFile(filepath.Join(dir, "MANIFEST.json"), &man); err != nil {
		return 0, 0, err
	}
	for _, t := range man.Tables {
		for _, s := range t.Segments {
			segs++
			bytes += s.Bytes
		}
	}
	return segs, bytes, nil
}

// tableRows reads every table's row count.
func tableRows(db *mscopedb.DB) map[string]int {
	out := map[string]int{}
	for _, name := range db.TableNames() {
		if t, err := db.Table(name); err == nil {
			out[name] = t.Rows()
		}
	}
	return out
}

// checkTables compares loaded rows with the corpus record count of every
// table.
func checkTables(c *corpus, got map[string]int) []string {
	var out []string
	want := c.tableRecords()
	names := make([]string, 0, len(want))
	for t := range want {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		if got[t] != want[t] {
			out = append(out, fmt.Sprintf("table %s: %d rows, corpus has %d records", t, got[t], want[t]))
		}
	}
	return out
}

// verdict is one diagnosed window, however it was reached.
type verdict struct {
	StartUS, EndUS int64
	Cause          string // kind@node
}

func verdictsOf(ws []core.WindowDiagnosis) []verdict {
	out := make([]verdict, len(ws))
	for i, w := range ws {
		out[i] = verdict{w.Window.StartMicros, w.Window.EndMicros, fmt.Sprintf("%s@%s", w.Kind, w.Node)}
	}
	return out
}

// checkVerdicts requires exactly one disk-io@mysql window per injected
// flush, each starting within a second of its flush, and nothing else.
func checkVerdicts(c *corpus, path string, vs []verdict) []string {
	var out []string
	if len(vs) != len(flushAt) {
		out = append(out, fmt.Sprintf("%s: %d verdicts %v, want %d disk-io@mysql", path, len(vs), vs, len(flushAt)))
		return out
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].StartUS < vs[j].StartUS })
	for i, v := range vs {
		at := c.TrialStartUS + flushAt[i].Microseconds()
		if v.Cause != "disk-io@mysql" || v.StartUS < at-time.Second.Microseconds() || v.StartUS > at+time.Second.Microseconds() {
			out = append(out, fmt.Sprintf("%s: verdict %d is %s at +%dms, want disk-io@mysql near +%dms",
				path, i, v.Cause, (v.StartUS-c.TrialStartUS)/1000, flushAt[i].Milliseconds()))
		}
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
