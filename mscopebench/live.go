package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/serve"
	"github.com/gt-elba/milliscope/internal/stream"
)

// liveRate is the open-loop writer's offered load in records per second:
// about a third of the drained local-streaming capacity (87-94k rows/s on
// a 2-CPU x86-64 host), so the pipeline keeps pace and freshness measures
// latency rather than a growing backlog.
const liveRate = 30000

// liveTick is the writer's and the sampler's cadence.
const liveTick = time.Millisecond

// liveReadEvery is the reader's fixed cadence: one request is due per
// interval of the replay, so every replay sends the same number of
// queries whatever they cost, and a costlier query shows as CPU per row
// instead of as fewer queries.
const liveReadEvery = 2 * time.Millisecond

// liveDeadline is the freshness a row must meet to count as loaded in
// time. Rows seen later count as failed operations, so a stream that
// falls behind the offered rate shows in success_ratio. At the offered
// rate the slowest row of a replay is seen within 0.12-0.16 s on a 2-CPU
// x86-64 host.
const liveDeadline = 500 * time.Millisecond

// schedule gives every record of every source its due write time: the
// records of one source are spread evenly over the replay, which keeps
// the sources roughly aligned in event time and offers liveRate records
// per second in total.
func schedule(c *corpus) [][]time.Duration {
	span := time.Duration(float64(c.records()) / liveRate * float64(time.Second))
	out := make([][]time.Duration, len(c.Files))
	for i, f := range c.Files {
		n := f.records()
		out[i] = make([]time.Duration, n)
		for k := range out[i] {
			out[i][k] = time.Duration(float64(span) * float64(k+1) / float64(n))
		}
	}
	return out
}

var udField = regexp.MustCompile(`\bUD=(\d+)`)

// frontDepartures returns the departure time (µs) of every front-tier
// record, the time the detector buckets a request's response time by.
func frontDepartures(c *corpus) (idx int, ud []int64, err error) {
	for i, f := range c.Files {
		if f.Table != "apache_event" {
			continue
		}
		ud = make([]int64, f.records())
		from := f.Head
		for k, end := range f.Ends {
			m := udField.FindSubmatch(f.Data[from:end])
			if m == nil {
				return 0, nil, fmt.Errorf("apache record %d has no UD field", k)
			}
			ud[k], _ = strconv.ParseInt(string(m[1]), 10, 64)
			from = end
		}
		return i, ud, nil
	}
	return 0, nil, fmt.Errorf("corpus has no apache event log")
}

// liveResult is one replay through the live pipeline.
type liveResult struct {
	db        *mscopedb.DB
	rows      int64
	wall      time.Duration // writer start until every row is visible and the reader is done
	fresh     []time.Duration
	missed    int
	late      int             // rows seen after liveDeadline
	writeLate []time.Duration // how late each write ran
	lagEvent  []time.Duration
	lagWall   []time.Duration
	queries   []time.Duration
	queryErrs int64
	status    stream.Status
	queuedMax int
	wmLagMax  int64
	checks    []string
}

// liveReplay appends the corpus to a fresh directory on the fixed
// schedule while a pipeline tails it and one reader queries the trailing
// second of event time through serve.
func liveReplay(e *env, parent int, dir string) (*liveResult, error) {
	c := e.corp
	logDir := filepath.Join(dir, "live")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	files := make([]*os.File, len(c.Files))
	for i, f := range c.Files {
		fh, err := os.OpenFile(filepath.Join(logDir, f.Name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		defer fh.Close()
		files[i] = fh
	}
	apache, ud, err := frontDepartures(c)
	if err != nil {
		return nil, err
	}
	sched := schedule(c)
	res := &liveResult{}

	var pipe *stream.Pipeline
	e.tr.do("stream.new", parent, func() { pipe, err = stream.New(stream.Config{LogDir: logDir}) })
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Pipeline: pipe})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	e.tr.do("stream.start", parent, func() { pipe.Start() })
	start := time.Now()

	byName := map[string]int{}
	for i, f := range c.Files {
		byName[f.Name] = i
	}
	var (
		done       = make(chan struct{}) // closed when every row is visible
		abort      = make(chan struct{}) // closed when waiting for that gives up
		writerDone = make(chan error, 1)
		frontier   atomic.Int64 // event-time frontier the reader queries behind
		samples    []rowSample
		wg         sync.WaitGroup
	)
	// The writer: every tick, append each source's records that are due.
	go func() {
		next := make([]int, len(c.Files))
		left := len(c.Files)
		ticker := time.NewTicker(liveTick)
		defer ticker.Stop()
		for left > 0 {
			<-ticker.C
			now := time.Since(start)
			for i, f := range c.Files {
				k := next[i]
				if k == f.records() {
					continue
				}
				upto := k
				for upto < f.records() && sched[i][upto] <= now {
					upto++
				}
				if upto == k {
					continue
				}
				from := 0 // the first write carries the header
				if k > 0 {
					from = f.Ends[k-1]
				}
				res.writeLate = append(res.writeLate, now-sched[i][k])
				id := e.tr.begin("loadgen.write", parent)
				_, err := files[i].Write(f.Data[from:f.Ends[upto-1]])
				e.tr.end(id)
				if err != nil {
					writerDone <- err
					return
				}
				next[i] = upto
				if upto == f.records() {
					left--
				}
			}
		}
		writerDone <- nil
	}()
	// The sampler: every tick, read every source's loaded rows.
	want := int64(c.records())
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(liveTick)
		defer ticker.Stop()
		for {
			st := pipe.Status()
			s := rowSample{At: time.Since(start), Rows: make([]int64, len(c.Files))}
			var rows int64
			for _, src := range st.Sources {
				if i, ok := byName[src.File]; ok {
					s.Rows[i] = src.Rows
					rows += src.Rows
				}
			}
			samples = append(samples, s)
			if st.Queued > res.queuedMax {
				res.queuedMax = st.Queued
			}
			if st.LagUS > res.wmLagMax {
				res.wmLagMax = st.LagUS
			}
			if st.LowWatermarkUS > 0 {
				frontier.Store(st.LowWatermarkUS)
			} else if s.Rows[apache] > 0 {
				frontier.Store(st.MaxFrontierUS)
			}
			if rows >= want {
				res.wall = s.At
				close(done)
				return
			}
			select {
			case <-ticker.C:
			case <-abort:
				return
			}
		}
	}()
	// The reader: one client sends a fixed number of queries over the
	// trailing second, request k due at k*liveReadEvery. A request that
	// comes due while the one before is still out, or before the first
	// front-tier row is loaded, is sent as soon as it can be; its latency
	// counts from when it was due, so a stall also shows in the requests
	// it delays.
	reads := int(sched[apache][len(sched[apache])-1] / liveReadEvery)
	readerDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(readerDone)
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second}
		defer client.CloseIdleConnections()
		base := "http://" + ln.Addr().String()
		for k := 0; k < reads; k++ {
			due := time.Duration(k) * liveReadEvery
			wait := due - time.Since(start)
			for to := frontier.Load(); wait > 0 || to == 0; to = frontier.Load() {
				if wait <= 0 {
					wait = liveTick
				}
				select {
				case <-time.After(wait):
				case <-abort:
					return
				}
				wait = 0
			}
			to := frontier.Load()
			url := fmt.Sprintf("%s/api/window?table=apache_event&value=rt_us&fn=p99&window=50ms&from=%d&to=%d", base, to-1_000_000, to)
			id := e.tr.begin("serve.live_window", parent)
			code, _, err := get(client, url)
			e.tr.end(id)
			res.queries = append(res.queries, time.Since(start)-due)
			if err != nil || code != http.StatusOK {
				res.queryErrs++
			}
		}
	}()

	if err := <-writerDone; err != nil {
		return nil, err
	}
	timeout := time.After(30 * time.Second)
	select {
	case <-done:
	case <-timeout:
		close(abort)
		res.checks = append(res.checks, "live: not every row became visible within 30s of the last write")
	}
	// The replay ends when every row is visible and the reader has sent
	// its last query.
	select {
	case <-readerDone:
		if d := time.Since(start); d > res.wall {
			res.wall = d
		}
	case <-timeout:
		close(abort)
		res.checks = append(res.checks, "live: the reader did not finish within 30s of the last write")
	}
	wg.Wait()
	if err := hs.Close(); err != nil {
		return nil, err
	}
	<-served
	e.tr.do("stream.stop", parent, func() { err = pipe.Stop() })
	if err != nil {
		return nil, fmt.Errorf("live pipeline: %w", err)
	}
	res.status = pipe.Status()
	res.db = pipe.DB()
	res.rows = res.status.Rows
	res.fresh, res.missed = freshness(sched, samples)
	res.late = lateRows(res.fresh, liveDeadline)

	var vs []verdict
	for _, a := range pipe.Alerts() {
		w := a.Diagnosis.Window
		vs = append(vs, verdict{w.StartMicros, w.EndMicros, fmt.Sprintf("%s@%s", a.Diagnosis.Kind, a.Diagnosis.Node)})
		res.lagEvent = append(res.lagEvent, time.Duration(a.WatermarkUS-w.EndMicros)*time.Microsecond)
		last := -1
		for k, d := range ud {
			if d >= w.StartMicros && d <= w.EndMicros {
				last = k
			}
		}
		if last >= 0 {
			res.lagWall = append(res.lagWall, a.Raised.Sub(start)-sched[apache][last])
		}
	}
	res.checks = append(res.checks, checkVerdicts(c, "live", vs)...)
	got := map[string]int{}
	for _, src := range res.status.Sources {
		if i, ok := byName[src.File]; ok {
			got[c.Files[i].Table] += int(src.Rows)
		}
	}
	res.checks = append(res.checks, checkTables(c, got)...)
	if res.status.Quarantined != 0 {
		res.checks = append(res.checks, fmt.Sprintf("live quarantined %d records", res.status.Quarantined))
	}
	if res.queryErrs != 0 {
		res.checks = append(res.checks, fmt.Sprintf("live reader: %d of %d queries failed", res.queryErrs, len(res.queries)))
	}
	if res.missed != 0 {
		res.checks = append(res.checks, fmt.Sprintf("live: %d records never seen loaded", res.missed))
	}
	return res, nil
}

// get fetches url and returns the status and body.
func get(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err = io.Copy(&buf, resp.Body)
	return resp.StatusCode, buf.Bytes(), err
}

// liveColdStart is one set-up: from NewLivePipeline until the first row
// of a small directory is visible.
func liveColdStart(headDir string) (time.Duration, error) {
	t0 := time.Now()
	pipe, err := stream.New(stream.Config{LogDir: headDir})
	if err != nil {
		return 0, err
	}
	pipe.Start()
	for pipe.Status().Rows == 0 {
		if time.Since(t0) > 10*time.Second {
			_ = pipe.Stop()
			return 0, fmt.Errorf("no row visible after 10s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	d := time.Since(t0)
	return d, pipe.Stop()
}

// staticDrain tails an unchanging copy of the corpus from Start to Stop:
// the untimed warm-up, and the drain probe of the traced run.
func staticDrain(dir string) (*stream.Pipeline, error) {
	pipe, err := stream.New(stream.Config{LogDir: dir})
	if err != nil {
		return nil, err
	}
	pipe.Start()
	return pipe, pipe.Stop()
}

func runLive(e *env) (*outcome, error) {
	o := &outcome{}
	head := filepath.Join(e.work, "live-head")
	if err := e.corp.headCorpus(head, 64); err != nil {
		return nil, err
	}
	err := o.coldStarts(setupRuns, func() (time.Duration, error) { return liveColdStart(head) })
	if err != nil {
		return nil, err
	}
	if _, err := staticDrain(e.corp.Dir); err != nil {
		return nil, err
	}
	want := int64(e.corp.records())
	n := 0
	var last *liveResult
	o.wall, o.cpu, err = phase(e.seconds, nil, func() (time.Duration, error) {
		n++
		dir := filepath.Join(e.work, fmt.Sprintf("live-%d", n))
		if last != nil {
			last.db = nil
		}
		r, err := liveReplay(e, 0, dir)
		if err != nil {
			return 0, err
		}
		o.ops += want
		o.failed += max64(want-r.rows, 0) + r.status.Quarantined + int64(r.late)
		o.checks = append(o.checks, r.checks...)
		last = r
		// Drop the replayed logs; the warehouse stays in memory.
		return r.wall, os.RemoveAll(dir)
	})
	if err != nil {
		return nil, err
	}
	o.keep = last.db
	return o, checkDiagnose(o, e.corp, "live", last.db)
}

// driveLive is one traced replay plus the static drain probe of the
// stream layer.
func driveLive(e *env, parent int, m *metricSet) (int64, error) {
	dir := filepath.Join(e.work, "drive-live")
	defer os.RemoveAll(dir)
	r, err := liveReplay(e, parent, dir)
	if err != nil {
		return 0, err
	}
	if len(r.checks) > 0 {
		return 0, fmt.Errorf("live checks: %v", r.checks)
	}
	m.add("live.rows_per_s", "1/s", float64(r.rows)/r.wall.Seconds(), int(r.rows))
	for _, p := range []struct {
		name string
		xs   []time.Duration
		q    float64
	}{
		{"live.freshness_p50_ms", r.fresh, 0.5},
		{"live.freshness_p99_ms", r.fresh, 0.99},
		{"live.query_p50_ms", r.queries, 0.5},
		{"loadgen.late_p99_ms", r.writeLate, 0.99},
	} {
		if err := m.addPct(p.name, "ms", durationsMS(p.xs), p.q); err != nil {
			return 0, err
		}
	}
	// Three alerts per replay: the lag is their median, a value the
	// percentile rule does not cover because it is not read off a tail.
	m.add("live.detect_lag_event_ms", "ms", medianMS(r.lagEvent), len(r.lagEvent))
	m.add("live.detect_lag_wall_ms", "ms", medianMS(r.lagWall), len(r.lagWall))
	m.add("stream.backpressure_stalls", "count", float64(r.status.Stalls), 0)
	m.add("stream.queued_max", "count", float64(r.queuedMax), 0)
	m.add("stream.watermark_lag_ms", "ms", float64(r.wmLagMax)/1000, 0)
	m.add("stream.alerts", "count", float64(r.status.Alerts), 0)
	m.add("stream.quarantined", "count", float64(r.status.Quarantined), 0)
	m.add("live.late_rows", "count", float64(r.late), 0)

	// The static-corpus drain: the stream layer's cost per row with no
	// schedule to wait on.
	a0 := readRuntime()
	t0 := time.Now()
	var pipe *stream.Pipeline
	e.tr.do("stream.drain", parent, func() { pipe, err = staticDrain(e.corp.Dir) })
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	alloc := readRuntime().sub(a0).allocBytes
	rows := pipe.Status().Rows
	if rows != int64(e.corp.records()) {
		return 0, fmt.Errorf("static drain loaded %d rows, corpus has %d", rows, e.corp.records())
	}
	m.add("stream.drain_ns_per_row", "ns", float64(d.Nanoseconds())/float64(rows), int(rows))
	m.add("stream.drain_alloc_bytes_per_row", "B", float64(alloc)/float64(rows), int(rows))
	return r.rows, nil
}

// medianMS is the plain median of a handful of values, in ms.
func medianMS(ds []time.Duration) float64 {
	_, q2, _ := quartiles(durationsMS(ds))
	return q2
}
