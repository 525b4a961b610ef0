package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/gt-elba/milliscope/internal/transform"
)

func TestCorpusIsAFunctionOfTheSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three 60 s trials")
	}
	dir := t.TempDir()
	gen := func(name string, seed int64) *corpus {
		c, err := makeCorpus(seed, filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b, other := gen("a", 17), gen("b", 17), gen("c", 18)
	differs := false
	for i, f := range a.Files {
		if f.Name != b.Files[i].Name || !bytes.Equal(f.Data, b.Files[i].Data) {
			t.Errorf("seed 17 twice: %s differs", f.Name)
		}
		if !bytes.Equal(f.Data, other.Files[i].Data) {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 17 and 18 gave the same corpus")
	}
	// Seed 17 is the corpus the benchmark's figures were first taken on.
	if got := a.records(); got != 179290 {
		t.Errorf("seed 17: %d records, want 179290", got)
	}
	want := map[string]int{"apache_event": 29059, "tomcat_event": 29059, "cjdbc_event": 58186, "mysql_event": 58186}
	for table, n := range want {
		if got := a.tableRecords()[table]; got != n {
			t.Errorf("seed 17: %s has %d records, want %d", table, got, n)
		}
	}
}

func TestSplitRecordsMultiLine(t *testing.T) {
	data := []byte("/usr/sbin/mysqld, Version: 5.5\nTcp port: 3306\nTime Id Command Argument\n" +
		"# Time: 2017-04-01T00:00:00.005008Z\n# User@Host: a\n# Query_time: 0.1\nSET timestamp=1;\nSELECT 1;\n" +
		"# Time: 2017-04-01T00:00:00.008231Z\n# User@Host: a\n# Query_time: 0.1\nSET timestamp=1;\nSELECT 2;\n")
	f, err := splitRecords(transform.DefaultPlan(), "mysql_slow.log", data)
	if err != nil {
		t.Fatal(err)
	}
	if f.records() != 2 || f.Table != "mysql_event" {
		t.Fatalf("got %d records into %s, want 2 into mysql_event", f.records(), f.Table)
	}
	if !bytes.HasPrefix(data[f.Head:], []byte("# Time: 2017-04-01T00:00:00.005008Z")) ||
		!bytes.HasPrefix(data[f.Ends[0]:], []byte("# Time: 2017-04-01T00:00:00.008231Z")) || f.Ends[1] != len(data) {
		t.Errorf("boundaries head=%d ends=%v", f.Head, f.Ends)
	}
	csv := []byte("#Date,Time,[CPU]User%\n20170401,00:00:00.050,2.10\n20170401,00:00:00.100,2.04\n")
	f, err = splitRecords(transform.DefaultPlan(), "apache_collectl.csv", csv)
	if err != nil {
		t.Fatal(err)
	}
	if f.records() != 2 || f.Table != "apache_collectlcsv" {
		t.Errorf("collectl: %d records into %s, want 2 into apache_collectlcsv", f.records(), f.Table)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "ops_per_s", "mscopedb.prune_ratio", "p-99", "9lives"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_lead", ".lead", "has space", "slash/name", "q%", string(long)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	// Every name BENCHMARK.json promises must fit the grammar too.
	type named struct {
		Name string `json:"name"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no metrics")
	}
	for _, list := range [][]named{spec.Workloads, spec.EndToEnd, spec.PerLayer} {
		for _, x := range list {
			if !validName(x.Name) {
				t.Errorf("BENCHMARK.json name %q breaks the grammar", x.Name)
			}
		}
	}
	var m metricSet
	defer func() {
		if recover() == nil {
			t.Error("metricSet.add accepted a bad name")
		}
	}()
	m.add("bad name", "ms", 1, 0)
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Error("median of 19 samples has only 9 beyond it but was given")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Errorf("median of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it but was given")
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	var m metricSet
	if err := m.addPct("x_ms", "ms", seq(5), 0.5); err == nil {
		t.Error("addPct accepted a median of 5 samples")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v", q1, q2, q3)
	}
}

func TestFreshnessFromWriterAndSamplerLogs(t *testing.T) {
	ms := time.Millisecond
	// Two sources. Source 0 writes records due at 1, 2, 3 ms; source 1 one
	// record due at 2 ms.
	sched := [][]time.Duration{{1 * ms, 2 * ms, 3 * ms}, {2 * ms}}
	samples := []rowSample{
		{At: 0, Rows: []int64{0, 0}},
		{At: 2 * ms, Rows: []int64{1, 0}}, // record 0 of source 0 seen 1 ms after due
		{At: 4 * ms, Rows: []int64{2, 1}}, // record 1: 2 ms; source 1 record 0: 2 ms
		{At: 9 * ms, Rows: []int64{2, 1}},
	}
	got, missed := freshness(sched, samples)
	want := []time.Duration{1 * ms, 2 * ms, 2 * ms}
	if missed != 1 {
		t.Errorf("missed = %d, want 1 (record 2 of source 0 never loaded)", missed)
	}
	if len(got) != len(want) {
		t.Fatalf("freshness = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("freshness[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// A sample taken before a record was due never counts for it, even if
	// its row count already covers the record (the count is a bound).
	early := []rowSample{{At: 0, Rows: []int64{1}}, {At: 5 * ms, Rows: []int64{1}}}
	got, _ = freshness([][]time.Duration{{3 * ms}}, early)
	if len(got) != 1 || got[0] != 2*ms {
		t.Errorf("early sample: freshness = %v, want [2ms]", got)
	}
	// Only rows seen strictly after the deadline count as late.
	if n := lateRows([]time.Duration{1 * ms, 5 * ms, 6 * ms, 9 * ms}, 5*ms); n != 2 {
		t.Errorf("lateRows = %d, want 2", n)
	}
}

func TestSelfTimeAndUnattributed(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Parent: 0, Name: "drive", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "ingest", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 2, Name: "parse", Start: 15 * ms, End: 25 * ms},
		{ID: 4, Parent: 2, Name: "parse", Start: 20 * ms, End: 30 * ms}, // overlaps span 3
		{ID: 5, Parent: 1, Name: "query", Start: 40 * ms, End: 70 * ms}, // overlaps span 2
		{ID: 6, Parent: 1, Name: "open", Start: 90 * ms, End: -1},       // never closed
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 100*ms - 60*ms, // children cover [10,70]
		2: 40*ms - 15*ms,  // children cover [15,30]
		3: 10 * ms,
		4: 10 * ms,
		5: 30 * ms,
	} {
		if self[id] != want {
			t.Errorf("self[%d] = %v, want %v", id, self[id], want)
		}
	}
	if _, ok := self[6]; ok {
		t.Error("an open span got a self time")
	}
	// 100 - (25 + 10 + 10 + 30) = 25
	if got := unattributed(spans, 1); got != 25*ms {
		t.Errorf("unattributed = %v, want 25ms", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false, "off")
	if id := tr.begin("x", 0); id != 0 {
		t.Errorf("id = %d with tracing off", id)
	}
	tr.do("x", 0, func() {})
	if n := len(tr.snapshot()); n != 0 {
		t.Errorf("%d spans recorded with tracing off", n)
	}
	on := newTracer(true, "on")
	root := on.begin("root", 0)
	on.do("child", root, func() {})
	on.end(root)
	s := on.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[1].End || s[0].Run != "on" {
		t.Errorf("spans = %+v", s)
	}
}
