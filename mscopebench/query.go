package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mql"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/serve"
	"github.com/gt-elba/milliscope/internal/tracegraph"
)

// The query mix. The client deals decks in a seeded order, so every run
// serves the same proportions; deckCounts gives the number of requests of
// each kind in one deck.
const (
	poolSize  = 16 // seeded slices, thresholds and request IDs per run
	traceTop  = 20 // /api/traces?limit
	sliceSpan = time.Second
)

type reqKind int

const (
	kFull reqKind = iota
	kSlice
	kMQL
	kTraces
	kTrace
	kSVG
	kDiagnosis
)

var kindNames = []string{"window_full", "window_slice", "mql", "traces", "trace", "flamegraph_svg", "diagnosis"}

// deckCounts weights the two classes by time, not by request count: each
// interactive kind takes about a sixth of a deck's time and the four
// analysis requests together about half, so a slowdown of either class
// moves the workload's figures by about the same amount. The counts follow
// per-request times measured on a 2-CPU x86-64 host (README.md, "Query
// mix"); the traced run prints the interactive share it measures.
var deckCounts = [...]int{kFull: 16, kSlice: 80, kMQL: 48, kTraces: 1, kTrace: 1, kSVG: 1, kDiagnosis: 1}

func (k reqKind) interactive() bool { return k <= kMQL }

// request is one call with the answer it must return.
type request struct {
	kind reqKind
	path string
	want []byte // exact expected body, or nil when check decides
	// check validates a body whose exact bytes are not pinned.
	check func(body []byte) error
}

// queryWarehouse builds the durable warehouse batch builds for this seed,
// once per process; its build is untimed preparation.
func (e *env) queryWarehouse() (string, error) {
	dir := filepath.Join(e.work, "query-wh")
	wh := filepath.Join(dir, "wh")
	if _, err := os.Stat(filepath.Join(wh, "MANIFEST.json")); err == nil {
		return wh, nil
	}
	t := e.tr
	e.tr = newTracer(false, t.run)
	p, err := runBatchPass(e, 0, dir, runtime.GOMAXPROCS(0), false)
	e.tr = t
	if err != nil {
		return "", err
	}
	if len(p.checks) > 0 {
		return "", fmt.Errorf("query warehouse: %v", p.checks)
	}
	return wh, nil
}

// buildRequests computes the reference answer of every request in the
// pool by calling the query layers directly on the same warehouse.
func buildRequests(e *env, db *mscopedb.DB) ([][]request, error) {
	rng := rand.New(rand.NewSource(e.seed))
	pools := make([][]request, len(kindNames))
	window := func(from, to int64) (string, *mql.Statement) {
		st := &mql.Statement{Table: "apache_event", Limit: -1, Windowed: true, Window: diagWindow,
			AggFn: mscopedb.AggP99, AggCol: "rt_us", TimeCol: "ltime"}
		q := url.Values{"table": {"apache_event"}, "value": {"rt_us"}, "fn": {"p99"}, "window": {"50ms"}}
		if to > 0 {
			st.Preds = []mql.Pred{{Col: "ltime", Op: mscopedb.OpGe, Value: fmt.Sprint(from)},
				{Col: "ltime", Op: mscopedb.OpLt, Value: fmt.Sprint(to)}}
			q.Set("from", fmt.Sprint(from))
			q.Set("to", fmt.Sprint(to))
		}
		return "/api/window?" + q.Encode(), st
	}
	tabular := func(st *mql.Statement) ([]byte, error) {
		out, err := mql.Exec(db, st)
		if err != nil {
			return nil, err
		}
		return indentJSON(struct {
			Cols []string   `json:"cols"`
			Rows [][]string `json:"rows"`
		}{out.Cols, out.Rows})
	}
	path, st := window(0, 0)
	want, err := tabular(st)
	if err != nil {
		return nil, err
	}
	pools[kFull] = []request{{kind: kFull, path: path, want: want}}
	span := trialDuration - sliceSpan
	for i := 0; i < poolSize; i++ {
		from := e.corp.TrialStartUS + rng.Int63n(span.Microseconds())
		path, st := window(from, from+sliceSpan.Microseconds())
		want, err := tabular(st)
		if err != nil {
			return nil, err
		}
		pools[kSlice] = append(pools[kSlice], request{kind: kSlice, path: path, want: want})

		q := fmt.Sprintf("SELECT reqid, rt_us FROM apache_event WHERE rt_us > %d", 100000+rng.Intn(200000))
		parsed, err := mql.Parse(q)
		if err != nil {
			return nil, err
		}
		want, err = tabular(parsed)
		if err != nil {
			return nil, err
		}
		pools[kMQL] = append(pools[kMQL], request{kind: kMQL, path: "/api/query?" + url.Values{"q": {q}}.Encode(), want: want})
	}

	traces, _, err := tracegraph.BuildPartial(db, eventTables())
	if err != nil {
		return nil, err
	}
	ordered := slowestFirst(traces)
	type summary struct {
		ReqID string `json:"reqid"`
		RTUS  int64  `json:"rt_us"`
		Spans int    `json:"spans"`
	}
	var top []summary
	for _, tr := range ordered[:traceTop] {
		top = append(top, summary{tr.ReqID, tr.ResponseTime().Microseconds(), len(tr.Spans)})
	}
	pools[kTraces] = []request{{kind: kTraces, path: fmt.Sprintf("/api/traces?limit=%d", traceTop), check: func(body []byte) error {
		var got []summary
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if !reflect.DeepEqual(got, top) {
			return fmt.Errorf("traces differ from the direct build")
		}
		return nil
	}}}
	for i := 0; i < poolSize; i++ {
		tr := ordered[rng.Intn(len(ordered))]
		want, err := indentJSON(tracegraph.BuildFlame(tr))
		if err != nil {
			return nil, err
		}
		pools[kTrace] = append(pools[kTrace], request{kind: kTrace, path: "/api/trace/" + url.PathEscape(tr.ReqID), want: want})
	}
	var svg bytes.Buffer
	if err := tracegraph.BuildFlame(ordered[0]).WriteSVG(&svg); err != nil {
		return nil, err
	}
	pools[kSVG] = []request{{kind: kSVG, path: "/flamegraph.svg", want: svg.Bytes()}}

	d, err := core.Diagnose(db, diagWindow)
	if err != nil {
		return nil, err
	}
	wantV := verdictsOf(d.Windows)
	if c := checkVerdicts(e.corp, "query reference", wantV); len(c) > 0 {
		return nil, fmt.Errorf("%v", c)
	}
	pools[kDiagnosis] = []request{{kind: kDiagnosis, path: "/api/diagnosis", check: func(body []byte) error {
		var tl struct {
			Entries []struct {
				StartUS int64  `json:"window_start_us"`
				EndUS   int64  `json:"window_end_us"`
				Kind    string `json:"kind"`
				Node    string `json:"node"`
			} `json:"entries"`
		}
		if err := json.Unmarshal(body, &tl); err != nil {
			return err
		}
		var got []verdict
		for _, en := range tl.Entries {
			got = append(got, verdict{en.StartUS, en.EndUS, en.Kind + "@" + en.Node})
		}
		if !reflect.DeepEqual(got, wantV) {
			return fmt.Errorf("diagnosis %v, direct Diagnose gave %v", got, wantV)
		}
		return nil
	}}}
	return pools, nil
}

func eventTables() []string {
	out := make([]string, len(core.Tiers))
	for i, t := range core.Tiers {
		out[i] = t + "_event"
	}
	return out
}

// slowestFirst orders traces by response time, slowest first, ties by
// request ID: the order /api/traces promises.
func slowestFirst(traces map[string]*tracegraph.Trace) []*tracegraph.Trace {
	out := make([]*tracegraph.Trace, 0, len(traces))
	for _, tr := range traces {
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := out[i].ResponseTime(), out[j].ResponseTime()
		if ri != rj {
			return ri > rj
		}
		return out[i].ReqID < out[j].ReqID
	})
	return out
}

// indentJSON encodes v the way serve writes its responses.
func indentJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// deck deals one seeded round of the mix.
func deck(rng *rand.Rand, pools [][]request) []request {
	var d []request
	for k, pool := range pools {
		for i := 0; i < deckCounts[k]; i++ {
			d = append(d, pool[rng.Intn(len(pool))])
		}
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// server is a warehouse reopened and served over loopback HTTP.
type server struct {
	db     *mscopedb.DB
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

func openServer(whDir string) (*server, error) {
	db, err := mscopedb.OpenDir(whDir, mscopedb.StoreOptions{})
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{DB: db})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{db: db, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return s, nil
}

func (s *server) close() error {
	s.client.CloseIdleConnections()
	err := s.hs.Close()
	<-s.served
	return err
}

// do sends one request and checks its answer.
func (s *server) do(r request) error {
	code, body, err := get(s.client, s.base+r.path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d", r.path, code)
	}
	if r.want != nil && !bytes.Equal(body, r.want) {
		return fmt.Errorf("%s: answer differs from the direct reference", r.path)
	}
	if r.check != nil {
		if err := r.check(body); err != nil {
			return fmt.Errorf("%s: %w", r.path, err)
		}
	}
	return nil
}

// queryColdStart is one set-up: reopen the warehouse, serve it, and get a
// 200 from /healthz.
func queryColdStart(whDir string) (time.Duration, error) {
	t0 := time.Now()
	s, err := openServer(whDir)
	if err != nil {
		return 0, err
	}
	code, _, err := get(s.client, s.base+"/healthz")
	d := time.Since(t0)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/healthz answered %d", code)
	}
	return d, err
}

type queryStats struct {
	lat      [][]time.Duration // per kind
	attempts int64
	failed   int64
	errs     []string
}

func (q *queryStats) record(r request, d time.Duration, err error) {
	q.attempts++
	q.lat[r.kind] = append(q.lat[r.kind], d)
	if err != nil {
		q.failed++
		if len(q.errs) < 5 {
			q.errs = append(q.errs, err.Error())
		}
	}
}

func (q *queryStats) class(interactive bool) []float64 {
	var out []float64
	for k, ds := range q.lat {
		if reqKind(k).interactive() == interactive {
			out = append(out, durationsMS(ds)...)
		}
	}
	return out
}

func runQuery(e *env) (*outcome, error) {
	o := &outcome{}
	wh, err := e.queryWarehouse()
	if err != nil {
		return nil, err
	}
	s, err := openServer(wh)
	if err != nil {
		return nil, err
	}
	pools, err := buildRequests(e, s.db)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	for _, r := range deck(rng, pools) { // warm-up
		if err := s.do(r); err != nil {
			return nil, err
		}
	}
	st := &queryStats{lat: make([][]time.Duration, len(kindNames))}
	// Set-up is a reopen served to a first /healthz, with the served
	// warehouse open alongside; the starts are spread through the run.
	start := func() (time.Duration, error) { return queryColdStart(wh) }
	before := func() error { return o.coldStarts(coldPerUnit, start) }
	o.wall, o.cpu, err = phase(e.seconds, before, func() (time.Duration, error) {
		var busy time.Duration
		for _, r := range deck(rng, pools) {
			t0 := time.Now()
			err := s.do(r)
			d := time.Since(t0)
			busy += d
			st.record(r, d, err)
		}
		return busy, nil
	})
	if err != nil {
		return nil, err
	}
	if err := o.coldStarts(setupRuns-len(o.setups), start); err != nil {
		return nil, err
	}
	o.ops, o.failed = st.attempts, st.failed
	for _, msg := range st.errs {
		o.fail("query: %s", msg)
	}
	o.keep = s.db
	return o, s.close()
}

// The traced run deals driveDecks decks, enough interactive samples for
// a p99 (at least 1,000), and sends the analysis requests of only the
// first analysisDecks, enough for a median (at least 20).
const (
	driveDecks    = 7
	analysisDecks = 5
)

func driveQuery(e *env, parent int, m *metricSet) (int64, error) {
	wh, err := e.queryWarehouse()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	var s *server
	e.tr.do("mscopedb.reopen", parent, func() { s, err = openServer(wh) })
	if err != nil {
		return 0, err
	}
	m.add("mscopedb.reopen_ms", "ms", ms(time.Since(t0)), 0)
	defer s.close()
	var pools [][]request
	e.tr.do("query.reference", parent, func() { pools, err = buildRequests(e, s.db) })
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(e.seed))
	st := &queryStats{lat: make([][]time.Duration, len(kindNames))}
	t1 := time.Now()
	for i := 0; i < driveDecks; i++ {
		for _, r := range deck(rng, pools) {
			if !r.kind.interactive() && i >= analysisDecks {
				continue
			}
			id := e.tr.begin("serve."+kindNames[r.kind], parent)
			t := time.Now()
			err := s.do(r)
			st.record(r, time.Since(t), err)
			e.tr.end(id)
		}
	}
	wall := time.Since(t1)
	if st.failed > 0 {
		return 0, fmt.Errorf("query: %d of %d requests failed: %v", st.failed, st.attempts, st.errs)
	}
	m.add("query.queries_per_s", "1/s", float64(st.attempts)/wall.Seconds(), int(st.attempts))
	for _, p := range []struct {
		name        string
		interactive bool
		q           float64
	}{{"query.query_p50_ms", true, 0.5}, {"query.query_p99_ms", true, 0.99}, {"query.analysis_p50_ms", false, 0.5}} {
		if err := m.addPct(p.name, "ms", st.class(p.interactive), p.q); err != nil {
			return 0, err
		}
	}
	m.add("serve.errors", "count", float64(st.failed), 0)
	// The interactive share of one whole deck's time; the analysis
	// requests ran in only analysisDecks of the decks.
	var inter, analysis time.Duration
	for k, ds := range st.lat {
		for _, d := range ds {
			if reqKind(k).interactive() {
				inter += d
			} else {
				analysis += d
			}
		}
	}
	perDeckI := inter.Seconds() / driveDecks
	perDeckA := analysis.Seconds() / analysisDecks
	if e.tr.on {
		fmt.Printf("query mix: interactive requests take %.3f of a deck's time\n", perDeckI/(perDeckI+perDeckA))
	}
	// HTTP overhead: the median MQL request over HTTP minus the median
	// direct Parse+Exec of the same statements.
	var direct []float64
	for i := 0; i < 3; i++ {
		for _, r := range pools[kMQL] {
			q, _ := url.ParseQuery(r.path[len("/api/query?"):])
			t := time.Now()
			if _, err := mql.Run(s.db, q.Get("q")); err != nil {
				return 0, err
			}
			direct = append(direct, ms(time.Since(t)))
		}
	}
	_, dm, _ := quartiles(direct)
	_, hm, _ := quartiles(durationsMS(st.lat[kMQL]))
	m.add("serve.http_overhead_us", "us", (hm-dm)*1000, len(st.lat[kMQL]))
	return st.attempts, nil
}
