package transform

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/gt-elba/milliscope/internal/importer"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// semaphore bounds the number of concurrently executing work units (file
// pipelines and shard parses share one pool) to Options.Workers.
type semaphore struct{ ch chan struct{} }

func newSemaphore(n int) *semaphore { return &semaphore{ch: make(chan struct{}, n)} }

func (s *semaphore) acquire() { s.ch <- struct{}{} }
func (s *semaphore) release() { <-s.ch }

// acquireCtx acquires a slot unless the ingest has been aborted.
func (s *semaphore) acquireCtx(ctx context.Context) bool {
	select {
	case s.ch <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// fileAction is the planning decision for one directory entry.
type fileAction int

const (
	actSkip      fileAction = iota // no binding in the plan
	actUnchanged                   // ledger offset equals current size
	actProcess                     // parse, convert, build, install
)

// fileJob carries one directory entry through the parallel ingest: the
// planning decision, the worker's output channel, and everything the
// sequencer needs to replay serial side effects in sorted-name order.
type fileJob struct {
	name    string
	full    string
	binding Binding
	size    int64
	action  fileAction
	// rebuild names the table to drop before install when the ledger shows
	// the source changed since it was loaded.
	rebuild string
	// preErr is a planning-stage failure (stat); the sequencer surfaces it
	// when — and only when — serial execution would have reached this file.
	preErr error
	out    chan fileOutcome
}

// fileOutcome is everything a worker produced for one file.
type fileOutcome struct {
	fr      FileResult
	tbl     *mscopedb.Table
	csvPath string
	err     error
}

// ingestDirParallel is IngestDirWithOptions' engine when Options.Workers
// exceeds one. Work is sharded per source file and — for chunkable
// formats — per byte range within a file; all heavy stages (read, parse,
// annotated-XML write, CSV conversion, table build) run on a worker pool,
// while a single sequenced appender walks files in sorted-name order and
// replays every warehouse side effect (drop-for-rebuild, table install,
// both ledger rows, report entries, policy decisions) exactly as the
// serial loop in IngestDirWithOptions would. The differential conformance
// suite asserts the equivalence: byte-identical warehouse dumps, identical
// reports, identical quarantine sinks, identical first error under
// FailFast.
func ingestDirParallel(db *mscopedb.DB, logDir, workDir string, plan *Plan, opts Options) (Report, error) {
	var rep Report
	entries, err := os.ReadDir(logDir)
	if err != nil {
		return rep, fmt.Errorf("transform: read log dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic ingest order

	// Plan every file before spawning workers. Ledger reads are safe to
	// hoist: this ingest's own ledger writes are keyed by source path, and
	// each path occurs once per directory scan.
	jobs := make([]*fileJob, 0, len(names))
	for _, name := range names {
		full := filepath.Join(logDir, name)
		b, ok := plan.Find(name)
		if !ok {
			jobs = append(jobs, &fileJob{name: name, action: actSkip})
			continue
		}
		j := &fileJob{name: name, full: full, binding: b, action: actProcess,
			out: make(chan fileOutcome, 1)}
		info, err := os.Stat(full)
		if err != nil {
			j.preErr = fmt.Errorf("transform: stat %s: %w", full, err)
			jobs = append(jobs, j)
			continue
		}
		j.size = info.Size()
		if off, known := db.LatestIngestOffset(full); known {
			if off == j.size {
				j.action = actUnchanged
			} else {
				j.rebuild = hostOf(full, b) + "_" + b.TableSuffix
			}
		}
		jobs = append(jobs, j)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sem := newSemaphore(opts.Workers)
	for _, j := range jobs {
		if j.action != actProcess || j.preErr != nil {
			continue
		}
		go func(j *fileJob) { j.out <- processFile(ctx, sem, j, workDir, opts) }(j)
	}

	// The sequenced appender: the only goroutine that touches db or rep.
	obs := selfobs.NewBuf()
	defer obs.Close()
	for _, j := range jobs {
		switch {
		case j.action == actSkip:
			rep.Skipped = append(rep.Skipped, j.name)
			continue
		case j.preErr != nil:
			return rep, j.preErr
		case j.action == actUnchanged:
			rep.Unchanged = append(rep.Unchanged, j.name)
			continue
		}
		o := <-j.out
		if j.rebuild != "" && db.HasTable(j.rebuild) {
			// Serial drops before transforming, so the table stays dropped
			// even when the transform then fails or rejects the file.
			if err := db.Drop(j.rebuild); err != nil {
				return rep, fmt.Errorf("transform: rebuild %s: %w", j.rebuild, err)
			}
		}
		if o.err != nil {
			if opts.Policy == Quarantine && errors.Is(o.err, ErrFileRejected) {
				rep.Failed = append(rep.Failed, FileFailure{Input: j.full, Err: o.err})
				continue
			}
			return rep, o.err
		}
		rep.Files = append(rep.Files, o.fr)
		sp := obs.Begin(selfobs.PipeIngest, "append", "seq", j.name)
		loaded, err := importer.Install(db, o.tbl, o.csvPath)
		if err != nil {
			return rep, err
		}
		if err := db.RecordIngestAt(loaded.Table, j.full, loaded.Rows, j.size, simtime.Epoch); err != nil {
			return rep, err
		}
		// Commit the spill store (no-op in memory): table rows and their
		// ledger entry become durable together, per file, so a killed
		// ingest resumes from completed files instead of from scratch.
		if err := db.Checkpoint(); err != nil {
			return rep, err
		}
		sp.End(int64(loaded.Rows), 0)
		rep.Loads = append(rep.Loads, loaded)
	}
	rep.sortDeterministic()
	return rep, nil
}

// processFile runs every non-sequenced stage for one file on the worker
// pool: parse (sharded when the format allows), annotated-XML write, CSV
// conversion, and standalone table build. It performs no warehouse writes
// and produces byte-identical artifacts and errors to the serial per-file
// path.
func processFile(ctx context.Context, sem *semaphore, j *fileJob, workDir string, opts Options) fileOutcome {
	b := j.binding
	// One span buffer per file worker: every stage span of this file is
	// appended goroutine-locally and flushed once when the worker returns.
	obs := selfobs.NewBuf()
	defer obs.Close()
	p, err := parsers.Get(b.Parser)
	if err != nil {
		return fileOutcome{err: err}
	}
	chunkSize := opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	cp, chunkable := p.(parsers.ChunkParser)
	var bnd parsers.Boundary
	if chunkable {
		bnd, chunkable = cp.Chunkable(b.Instructions)
	}
	if !chunkable || j.size < int64(2*chunkSize) {
		// Whole-file path: custom parsers and small files reuse the serial
		// per-file functions verbatim, one worker slot per file.
		if !sem.acquireCtx(ctx) {
			return fileOutcome{err: ctx.Err()}
		}
		defer sem.release()
		var fr FileResult
		var err error
		if opts.Materialize {
			sp := obs.Begin(selfobs.PipeIngest, "parse", "whole", j.name)
			if opts.Policy == Quarantine {
				fr, err = transformFileDegraded(j.full, b, workDir, opts)
			} else {
				fr, err = TransformFile(j.full, b, workDir)
			}
			if err != nil {
				return fileOutcome{err: err}
			}
			sp.End(int64(fr.Entries), int64(fr.Quarantined))
			return finishFile(fr, workDir, obs, j.name)
		}
		sp := obs.Begin(selfobs.PipeIngest, "parse", "whole", j.name)
		set := newEntrySet()
		fr, err = directParse(j.full, b, workDir, opts, set)
		if err != nil {
			return fileOutcome{err: err}
		}
		sp.End(int64(fr.Entries), int64(fr.Quarantined))
		return finishDirect(fr, set, workDir, obs, j.name)
	}
	return processChunked(ctx, sem, j, cp, bnd, chunkSize, workDir, opts, obs)
}

// processChunked is the sharded parse path: split the file on record
// boundaries, parse shards concurrently, stitch the results into serial
// order, then run the same bookkeeping the serial transform performs.
func processChunked(ctx context.Context, sem *semaphore, j *fileJob, cp parsers.ChunkParser, bnd parsers.Boundary, chunkSize int, workDir string, opts Options, obs *selfobs.Buf) fileOutcome {
	b := j.binding
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return fileOutcome{err: fmt.Errorf("transform: create work dir: %w", err)}
	}
	host := hostOf(j.full, b)
	table := host + "_" + b.TableSuffix
	sp := obs.Begin(selfobs.PipeIngest, "read", "whole", j.name)
	data, err := os.ReadFile(j.full)
	if err != nil {
		return fileOutcome{err: fmt.Errorf("transform: open %s: %w", j.full, err)}
	}
	sp.End(int64(len(data)), 0)
	degraded := opts.Policy == Quarantine
	sp = obs.Begin(selfobs.PipeIngest, "shardplan", "whole", j.name)
	shards := planShards(data, bnd, chunkSize)
	sp.End(int64(len(shards)), 0)
	entries, regions, parseErr := parseSharded(ctx, sem, cp, shards, b.Instructions, degraded, obs, j.name)

	if !sem.acquireCtx(ctx) {
		return fileOutcome{err: ctx.Err()}
	}
	defer sem.release()

	var fr FileResult
	fr = FileResult{Input: j.full, Parser: b.Parser, Table: table}
	if degraded {
		// Replay the stitched malformed regions — already in serial order —
		// through the same sink the serial degraded transform writes, so
		// sink bytes and counts match exactly.
		sink := &quarantineSink{dir: opts.quarantineDir(workDir), base: filepath.Base(j.full)}
		for _, m := range regions {
			if parseErr != nil {
				break
			}
			if serr := sink.record(m); serr != nil {
				parseErr = serr
			}
		}
		if cerr := sink.close(); cerr != nil && parseErr == nil {
			parseErr = cerr
		}
		fr.Quarantined = sink.count()
		fr.QuarantinePath = sink.path()
	}
	if parseErr != nil {
		return fileOutcome{err: fmt.Errorf("transform: %s: %w", j.full, parseErr)}
	}

	if !opts.Materialize {
		// Direct path: the stitched entries feed inference and the table
		// build in memory; no annotated-XML artifact is written.
		fr.Entries = len(entries)
		if degraded {
			if err := opts.checkBudget(fr, j.full); err != nil {
				return fileOutcome{fr: fr, err: err}
			}
		}
		set := newEntrySet()
		nf := 0
		for _, e := range entries {
			nf += len(e.Fields)
		}
		set.reserve(len(entries), nf)
		for _, e := range entries {
			set.copyIn(e)
		}
		return finishDirect(fr, set, workDir, obs, j.name)
	}

	sp = obs.Begin(selfobs.PipeIngest, "mxmlwrite", "whole", j.name)
	mxmlPath := filepath.Join(workDir, table+".mxml")
	outF, err := os.Create(mxmlPath)
	if err != nil {
		return fileOutcome{err: fmt.Errorf("transform: create %s: %w", mxmlPath, err)}
	}
	defer outF.Close()
	w := mxml.NewWriter(outF)
	if err := w.Open(mxml.Meta{Source: b.Source, Host: host, Table: table}); err != nil {
		return fileOutcome{err: err}
	}
	for _, e := range entries {
		if err := w.WriteEntry(e); err != nil {
			return fileOutcome{err: err}
		}
	}
	if err := w.Close(); err != nil {
		return fileOutcome{err: err}
	}
	fr.MXMLPath = mxmlPath
	fr.Entries = w.Entries()
	sp.End(int64(fr.Entries), 0)
	if degraded {
		if err := opts.checkBudget(fr, j.full); err != nil {
			return fileOutcome{fr: fr, err: err}
		}
	}
	return finishFile(fr, workDir, obs, j.name)
}

// finishFile runs the conversion and table-build stages shared by both
// worker paths.
func finishFile(fr FileResult, workDir string, obs *selfobs.Buf, name string) fileOutcome {
	sp := obs.Begin(selfobs.PipeIngest, "convert", "whole", name)
	conv, err := xmlcsv.ConvertFile(fr.MXMLPath, workDir)
	if err != nil {
		return fileOutcome{err: err}
	}
	sp.End(int64(fr.Entries), 0)
	sp = obs.Begin(selfobs.PipeIngest, "build", "whole", name)
	tbl, err := importer.BuildTable(conv.CSVPath, conv.SchemaPath)
	if err != nil {
		return fileOutcome{err: err}
	}
	sp.End(int64(tbl.Rows()), 0)
	return fileOutcome{fr: fr, tbl: tbl, csvPath: conv.CSVPath}
}

// finishDirect is finishFile's direct-path counterpart: finalize schema
// inference and build the table straight from the in-memory entry set.
func finishDirect(fr FileResult, set *entrySet, workDir string, obs *selfobs.Buf, name string) fileOutcome {
	sp := obs.Begin(selfobs.PipeIngest, "convert", "whole", name)
	cols, err := set.columns(filepath.Join(workDir, fr.Table+".mxml"))
	if err != nil {
		return fileOutcome{err: err}
	}
	sp.End(int64(fr.Entries), 0)
	sp = obs.Begin(selfobs.PipeIngest, "build", "whole", name)
	csvPath := filepath.Join(workDir, fr.Table+".csv")
	tbl, err := set.buildTable(fr.Table, cols, csvPath)
	if err != nil {
		return fileOutcome{err: err}
	}
	sp.End(int64(tbl.Rows()), 0)
	return fileOutcome{fr: fr, tbl: tbl, csvPath: csvPath}
}
