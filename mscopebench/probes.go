package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/mql"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/tracegraph"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/wire"
)

// probeReps repeats each short direct call; its median is reported.
const probeReps = 21

// probeLayers calls each layer directly on the corpus and on the
// durable warehouse, with no HTTP and no pipeline around it.
func probeLayers(e *env, parent int, m *metricSet) error {
	if err := probeParsers(e, parent, m); err != nil {
		return err
	}
	if err := probeWire(e, parent, m); err != nil {
		return err
	}
	wh, err := e.queryWarehouse()
	if err != nil {
		return err
	}
	db, err := mscopedb.OpenDir(wh, mscopedb.StoreOptions{})
	if err != nil {
		return err
	}
	if err := probeStore(e, parent, db, m); err != nil {
		return err
	}
	if err := probeMQL(e, parent, db, m); err != nil {
		return err
	}
	if err := probeCore(e, parent, db, m); err != nil {
		return err
	}
	return probeTracegraph(e, parent, db, m)
}

// parseFile runs one corpus file through its parser and hands every
// record to emit.
func parseFile(f *sourceFile, emit parsers.Emit) error {
	b, ok := transform.DefaultPlan().Find(f.Name)
	if !ok {
		return fmt.Errorf("no binding for %s", f.Name)
	}
	p, err := parsers.Get(b.Parser)
	if err != nil {
		return err
	}
	if cp, ok := p.(parsers.ChunkParser); ok {
		_, err = cp.ParseChunk(bytes.NewReader(f.Data), b.Instructions, 1, false, emit, nil)
		return err
	}
	return p.Parse(bytes.NewReader(f.Data), b.Instructions, emit)
}

func probeParsers(e *env, parent int, m *metricSet) error {
	var records int64
	var busy time.Duration
	r0 := readAllocs()
	for _, f := range e.corp.Files {
		t0 := time.Now()
		var err error
		e.tr.do("parsers.parse", parent, func() {
			err = parseFile(f, func(en mxml.Entry) error {
				records++
				en.Release()
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("parse %s: %w", f.Name, err)
		}
		busy += time.Since(t0)
	}
	allocs := readAllocs() - r0
	if records != int64(e.corp.records()) {
		return fmt.Errorf("parsers emitted %d records, corpus has %d", records, e.corp.records())
	}
	m.add("parsers.records", "count", float64(records), 0)
	m.add("parsers.ns_per_record", "ns", float64(busy.Nanoseconds())/float64(records), int(records))
	m.add("parsers.allocs_per_record", "count", float64(allocs)/float64(records), int(records))
	// The single-worker ingest minus the serial parse is what transform
	// itself spends: type inference, append, ledger.
	if w1, ok := m.get("transform.rows_per_s_w1"); ok {
		ingest := float64(records) / w1.Value * 1000
		m.add("transform.self_ms", "ms", ingest-ms(busy), 0)
	}
	return nil
}

// agentBatch is the agent's default batch size.
const agentBatch = 512

func probeWire(e *env, parent int, m *metricSet) error {
	var batches []*wire.Batch
	for _, f := range e.corp.Files {
		var pending []mxml.Entry
		flush := func() {
			if len(pending) == 0 {
				return
			}
			b := &wire.Batch{SourceID: uint32(len(batches)), Seq: 1}
			b.AppendEntries(pending)
			batches = append(batches, b)
			pending = nil
		}
		err := parseFile(f, func(en mxml.Entry) error {
			pending = append(pending, en)
			if len(pending) == agentBatch {
				flush()
			}
			return nil
		})
		if err != nil {
			return err
		}
		flush()
	}
	var rows int
	for _, b := range batches {
		rows += b.Records()
	}
	frames := make([][]byte, len(batches))
	t0 := time.Now()
	e.tr.do("wire.encode", parent, func() {
		for i, b := range batches {
			frames[i] = wire.EncodeBatch(b)
		}
	})
	enc := time.Since(t0)
	var err error
	decoded := 0
	t1 := time.Now()
	e.tr.do("wire.decode", parent, func() {
		for _, fr := range frames {
			var b wire.Batch
			if b, err = wire.DecodeBatch(fr); err != nil {
				return
			}
			decoded += b.Records()
		}
	})
	dec := time.Since(t1)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if decoded != rows || rows != e.corp.records() {
		return fmt.Errorf("wire round trip: %d rows encoded, %d decoded, corpus has %d", rows, decoded, e.corp.records())
	}
	m.add("wire.frames", "count", float64(len(frames)), 0)
	m.add("wire.encode_ns_per_row", "ns", float64(enc.Nanoseconds())/float64(rows), rows)
	m.add("wire.decode_ns_per_row", "ns", float64(dec.Nanoseconds())/float64(rows), rows)
	return nil
}

// timeReps runs fn probeReps times inside spans and returns the median.
func timeReps(e *env, parent int, name string, fn func() error) (time.Duration, error) {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		var err error
		e.tr.do(name, parent, func() { err = fn() })
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, float64(time.Since(t0)))
	}
	_, q2, _ := quartiles(xs)
	return time.Duration(q2), nil
}

func probeStore(e *env, parent int, db *mscopedb.DB, m *metricSet) error {
	t, err := db.Table("apache_event")
	if err != nil {
		return err
	}
	// Pruning: one 1 s slice through the middle of the trial.
	from := e.corp.TrialStartUS + (trialDuration / 2).Microseconds()
	mscopedb.ResetScanStats()
	res, err := t.Select().Between("ltime", time.UnixMicro(from), time.UnixMicro(from+sliceSpan.Microseconds())).Rows()
	if err != nil {
		return err
	}
	scanned, pruned := mscopedb.ScanStats()
	m.add("mscopedb.segments_scanned", "count", float64(scanned), 0)
	m.add("mscopedb.segments_pruned", "count", float64(pruned), 0)
	if scanned+pruned > 0 {
		m.add("mscopedb.prune_ratio", "ratio", float64(pruned)/float64(scanned+pruned), 0)
	} else {
		m.add("mscopedb.prune_ratio", "ratio", 0, 0)
	}
	if res.Len() == 0 {
		return fmt.Errorf("a 1 s slice through the trial returned no rows")
	}
	all, err := t.Select().Rows()
	if err != nil {
		return err
	}
	d, err := timeReps(e, parent, "mscopedb.window_agg", func() error {
		_, err := all.WindowAgg("ltime", diagWindow, "rt_us", mscopedb.AggP99)
		return err
	})
	if err != nil {
		return err
	}
	m.add("mscopedb.window_agg_us", "us", float64(d.Nanoseconds())/1000, probeReps)
	return nil
}

func probeMQL(e *env, parent int, db *mscopedb.DB, m *metricSet) error {
	q := "SELECT reqid, rt_us FROM apache_event WHERE rt_us > 200000"
	var st *mql.Statement
	d, err := timeReps(e, parent, "mql.parse", func() error {
		var err error
		st, err = mql.Parse(q)
		return err
	})
	if err != nil {
		return err
	}
	m.add("mql.parse_us", "us", float64(d.Nanoseconds())/1000, probeReps)
	d, err = timeReps(e, parent, "mql.exec", func() error {
		_, err := mql.Exec(db, st)
		return err
	})
	if err != nil {
		return err
	}
	m.add("mql.exec_us", "us", float64(d.Nanoseconds())/1000, probeReps)
	return nil
}

func probeCore(e *env, parent int, db *mscopedb.DB, m *metricSet) error {
	d, err := core.Diagnose(db, diagWindow)
	if err != nil {
		return err
	}
	var ev *core.Evidence
	t0 := time.Now()
	e.tr.do("core.evidence", parent, func() { ev, _, err = core.BuildEvidence(db, diagWindow) })
	if err != nil {
		return err
	}
	m.add("core.evidence_ms", "ms", ms(time.Since(t0)), 0)
	var per []float64
	for _, w := range d.Windows {
		t := time.Now()
		var got core.WindowDiagnosis
		e.tr.do("core.classify", parent, func() { got = core.ClassifyWindow(ev, w.Window) })
		per = append(per, float64(time.Since(t).Nanoseconds())/1000)
		if got.Kind != w.Kind || got.Node != w.Node {
			return fmt.Errorf("ClassifyWindow disagrees with Diagnose on %v", w.Window)
		}
	}
	_, q2, _ := quartiles(per)
	m.add("core.classify_us", "us", q2, len(per))
	m.add("core.windows", "count", float64(len(d.Windows)), 0)
	return nil
}

func probeTracegraph(e *env, parent int, db *mscopedb.DB, m *metricSet) error {
	var traces map[string]*tracegraph.Trace
	var err error
	t0 := time.Now()
	e.tr.do("tracegraph.build", parent, func() { traces, _, err = tracegraph.BuildPartial(db, eventTables()) })
	if err != nil {
		return err
	}
	m.add("tracegraph.build_ms", "ms", ms(time.Since(t0)), 0)
	m.add("tracegraph.traces", "count", float64(len(traces)), 0)
	slowest := slowestFirst(traces)[0]
	var fl *tracegraph.Flame
	d, err := timeReps(e, parent, "tracegraph.flame", func() error {
		fl = tracegraph.BuildFlame(slowest)
		return nil
	})
	if err != nil {
		return err
	}
	m.add("tracegraph.flame_us", "us", float64(d.Nanoseconds())/1000, probeReps)
	d, err = timeReps(e, parent, "tracegraph.svg", func() error { return fl.WriteSVG(io.Discard) })
	if err != nil {
		return err
	}
	m.add("tracegraph.svg_us", "us", float64(d.Nanoseconds())/1000, probeReps)
	return nil
}
