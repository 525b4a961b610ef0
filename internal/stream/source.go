package stream

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/transform"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// Source states reported in Status.
const (
	StateActive   = "active"
	StateFailed   = "failed"   // strict parser or I/O error; table keeps its rows
	StateRejected = "rejected" // quarantine error budget breached
	StateDone     = "done"     // drained cleanly at shutdown
)

// Streamable reports whether the live pipeline tails a file: it must have
// a Parsing Declaration binding, and its format must carry per-record
// event times the watermark can track (the four event logs, the collectl
// CSVs — exactly the evidence the diagnosis consumes — and the selfobs
// span logs, which is what lets distributed agents ship their own
// telemetry to the collector as just another source).
func Streamable(plan *transform.Plan, name string) bool {
	b, ok := plan.Find(name)
	if !ok {
		return false
	}
	return b.TableSuffix == "event" || b.TableSuffix == "collectlcsv" ||
		b.TableSuffix == "selftrace"
}

// source is one tailed file: its tailer, parser, target table, and
// counters. The tail loop owns the tailer, the parser goroutine owns the
// parse, the loader owns the appender; cross-goroutine fields are atomic
// or mutex-guarded.
type source struct {
	path    string
	name    string // base name
	binding transform.Binding
	table   string
	host    string
	parser  parsers.Parser
	tail    *Tailer
	pw      *io.PipeWriter

	// skipEntries > 0 means the parse restarts from byte zero (the format
	// needs its header) and this many already-consumed records are dropped
	// before processing resumes — the row-level half of idempotent resume.
	// Atomic because a remote source's reopen (on the connection goroutine)
	// re-arms it while the loader owns the decrements.
	skipEntries atomic.Int64
	// consumedBase is the consumed-record count carried over from prior
	// sessions when the tailer byte-resumes mid-file (re-read-from-zero
	// resumes re-count naturally and leave it 0). consumed + consumedBase
	// is what the checkpoint ledger records.
	consumedBase atomic.Int64

	// Remote sources (no tailer): the byte offset covered by every applied
	// batch, and the consumed-record total at the moment that offset was
	// stored — together they let a reconnecting agent resume mid-cycle
	// with the re-shipped overlap skipped exactly.
	remoteOff  atomic.Int64
	remoteRows atomic.Int64
	// pending counts this source's records sitting between a remote feeder
	// and the loader; a reconnect's reopen waits for it to drain before
	// touching the resume arithmetic.
	pending atomic.Int64

	app *appender // loader-owned

	rows        atomic.Int64
	quarantined atomic.Int64
	parseErrs   atomic.Int64 // unrecoverable parser failures (0 or 1)
	frontierUS  atomic.Int64
	// consumed counts every record the loader drained from this source
	// this session, including resume-skips; processed excludes the skips.
	// Under degraded fidelity processed > rows: consumed records may be
	// rolled up or shed instead of appended, which is exactly why the
	// ledger checkpoint records consumption, not table rows.
	consumed  atomic.Int64
	processed atomic.Int64

	mu    sync.Mutex
	state string
	err   error
}

// write feeds tailed bytes into the parser pipe; it blocks while the
// parser (and transitively the loader) is busy — the backpressure edge.
func (s *source) write(b []byte) error {
	_, err := s.pw.Write(b)
	return err
}

func (s *source) setState(state string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Terminal states stick: a budget rejection is not overwritten by the
	// shutdown drain marking everything done.
	if s.state == StateFailed || s.state == StateRejected {
		return
	}
	s.state = state
	s.err = err
}

func (s *source) status() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.err
}

// committedOff is the resumable byte offset: the tailer's committed
// position locally, the last applied batch offset for a remote source.
func (s *source) committedOff() int64 {
	if s.tail != nil {
		return s.tail.Committed()
	}
	return s.remoteOff.Load()
}

// rotationCount is tailer rotations; remote sources report their agent's
// rotations out of band, not here.
func (s *source) rotationCount() int64 {
	if s.tail != nil {
		return s.tail.Rotations()
	}
	return 0
}

// eventTimeUS extracts the record's event time: departure (ud) for event
// tables, sample timestamp (ts) for collectl CSVs. False means the record
// carries no usable clock — it still loads, but cannot advance the
// watermark.
func (s *source) eventTimeUS(e *mxml.Entry) (int64, bool) {
	if s.binding.TableSuffix == "event" {
		v, ok := e.Get("ud")
		if !ok {
			return 0, false
		}
		us, err := strconv.ParseInt(v, 10, 64)
		return us, err == nil
	}
	v, ok := e.Get("ts")
	if !ok {
		return 0, false
	}
	ts, err := time.Parse(mxml.TimeLayout, v)
	if err != nil {
		return 0, false
	}
	return ts.UnixMicro(), true
}

// appender maintains one warehouse table incrementally: the table is
// created from the first record's inferred schema, and later records that
// contradict it widen columns or add new ones in place — converging on
// the same schema the batch converter's whole-file inference would have
// produced. The schema is read in place (ColType), and each record is
// laid out in a reused row buffer indexed by column, so a record that
// fits the settled schema costs one column lookup and one parse check per
// field and allocates nothing here.
type appender struct {
	db    *mscopedb.DB
	name  string
	table *mscopedb.Table
	row   []string
}

func newAppender(db *mscopedb.DB, name string) *appender {
	a := &appender{db: db, name: name}
	if db.HasTable(name) {
		a.table, _ = db.Table(name) // resume: append to the existing table
	}
	return a
}

func (a *appender) append(e mxml.Entry) error {
	if a.table == nil {
		inf := xmlcsv.NewInference()
		inf.Observe(e)
		cols := inf.Columns()
		if cols == nil {
			return fmt.Errorf("stream: %s: record with no fields", a.name)
		}
		t, err := a.db.Create(a.name, cols)
		if err != nil {
			return err
		}
		a.table = t
	}
	t := a.table
	n := t.NumCols()
	if cap(a.row) < n {
		a.row = make([]string, n)
	}
	row := a.row[:n]
	clear(row)
	for _, f := range e.Fields {
		ci := t.ColIndex(f.Name)
		if ci < 0 {
			inf := xmlcsv.NewInference()
			inf.Observe(mxml.Entry{Fields: []mxml.Field{f}})
			if err := t.AddColumn(inf.Columns()[0]); err != nil {
				return err
			}
			ci = len(row)
			row = append(row, "")
		} else {
			cur := t.ColType(ci)
			if want := xmlcsv.WidenFor(cur, f.Value, f.Hint); want != cur {
				if err := t.Widen(f.Name, want); err != nil {
					return err
				}
			}
		}
		// Duplicate field names keep the last value, as in the batch path.
		row[ci] = f.Value
	}
	a.row = row
	return t.AppendStrings(row)
}
