package stream

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/faults"
	"github.com/gt-elba/milliscope/internal/fidelity"
	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/selfobs"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/transform"
)

// Self-telemetry counters for the per-record loader stages, where even a
// buffered span per row would dominate the work being measured. They
// no-op unless a selfobs collector is enabled.
var (
	obsRowsAppended   = selfobs.NewCounter(selfobs.PipeLive, "append", "rows_appended")
	obsWatermarkMoves = selfobs.NewCounter(selfobs.PipeLive, "watermark", "advances")
)

// Config parameterizes a live pipeline. Zero values select defaults.
type Config struct {
	// LogDir is the directory tailed for monitor logs. Required.
	LogDir string
	// DB receives the rows; pass a loaded warehouse to resume a previous
	// session (the ingest ledger checkpoints decide where tailing starts).
	// Nil opens a fresh one.
	DB *mscopedb.DB
	// Plan is the Parsing Declaration; nil uses the default.
	Plan *transform.Plan
	// Window is the detector's PIT window width (default 50ms).
	Window time.Duration
	// Poll is the tailer poll interval (default 10ms).
	Poll time.Duration
	// ErrorBudget is the per-source quarantine budget (default 5%): a
	// source whose corrupt-record ratio exceeds it is rejected, exactly as
	// the batch quarantine policy rejects a file.
	ErrorBudget float64
	// Skew is the clock-skew bound subtracted from the low watermark
	// (default: the fault model's 2ms).
	Skew time.Duration
	// Grace delays classification past the watermark (default 2s); see
	// DefaultGrace.
	Grace time.Duration
	// ChannelCap bounds the record channel (default 256). Backpressure:
	// when the loader lags, parsers block here, their pipes fill, and the
	// tailers stop reading — nothing buffers without bound. Stall events
	// (a parser finding the channel full) are counted and exported.
	ChannelCap int
	// Fidelity configures load-aware degradation; the zero value keeps
	// full fidelity unconditionally.
	Fidelity FidelityOptions
	// ConsumerDelay throttles the loader by this much per record — the
	// slow-consumer half of the chaos overload injector. Zero in
	// production.
	ConsumerDelay time.Duration
	// OnAlert, when set, receives each alert as it fires, from the loader
	// goroutine: it must not block on the pipeline itself.
	OnAlert func(Alert)

	// remote marks an engine fed over the network instead of by the tail
	// loop (set by NewRemote): no LogDir, no file discovery, no parsers —
	// sources are registered with OpenRemote and records injected with
	// RemoteSource.Append.
	remote bool
}

// minBudgetSamples is how many records a source must produce before the
// error budget can reject it — a handful of early corrupt lines is not a
// ratio.
const minBudgetSamples = 200

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.LogDir == "" && !out.remote {
		return out, fmt.Errorf("stream: Config.LogDir is required")
	}
	if out.DB == nil {
		out.DB = mscopedb.Open()
	}
	if out.Plan == nil {
		out.Plan = transform.DefaultPlan()
	}
	if out.Window <= 0 {
		out.Window = 50 * time.Millisecond
	}
	if out.Poll <= 0 {
		out.Poll = 10 * time.Millisecond
	}
	if out.ErrorBudget == 0 {
		out.ErrorBudget = transform.DefaultErrorBudget
	}
	if out.Skew <= 0 {
		out.Skew = faults.DefaultSkewMax
	}
	if out.Grace <= 0 {
		out.Grace = DefaultGrace
	}
	if out.ChannelCap <= 0 {
		out.ChannelCap = 256
	}
	return out, nil
}

// rec is one parsed record in flight from a parser to the loader. done,
// when set, is invoked by the loader after the record is fully processed —
// the remote ingest path hangs ack and flow-control accounting off it.
type rec struct {
	src   *source
	entry mxml.Entry
	done  func()
}

// Pipeline is the live ingest-and-detect engine. Start launches the tail
// loop (file discovery + polling), one parser goroutine per source, and
// the loader (append, watermark, detection). Stop drains everything —
// remaining bytes are read to EOF, partial lines flushed, parsers joined,
// final windows classified — and checkpoints per-source byte offsets in
// the ingest ledger.
type Pipeline struct {
	cfg Config
	db  *mscopedb.DB
	wm  *Watermark
	det *detector
	fid *fidelityRun // nil when fidelity is off

	recs     chan rec
	dbReqs   chan func(*mscopedb.DB)
	stopCh   chan struct{}
	loadDone chan struct{}
	parserWG sync.WaitGroup

	rowsTotal atomic.Int64
	stalls    atomic.Int64 // backpressure stall events (channel found full)

	// loaderObs is the loader goroutine's span buffer, exposed so the
	// promotion path (called from the detector, on the loader) can record
	// spans without allocating a buffer per promotion.
	loaderObs *selfobs.Buf

	mu      sync.Mutex
	sources []*source
	byPath  map[string]*source
	alerts  []Alert
	started time.Time
	running bool
	stopped bool
	loadErr error
}

// New builds a pipeline; Start actually runs it.
func New(cfg Config) (*Pipeline, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	p := &Pipeline{
		cfg:      c,
		db:       c.DB,
		wm:       NewWatermark(c.Skew.Microseconds()),
		det:      newDetector(c.DB, c.Window, c.Grace),
		recs:     make(chan rec, c.ChannelCap),
		dbReqs:   make(chan func(*mscopedb.DB)),
		stopCh:   make(chan struct{}),
		loadDone: make(chan struct{}),
		byPath:   make(map[string]*source),
	}
	if c.Fidelity.enabled() {
		p.fid = newFidelityRun(c.Fidelity)
		// The detector promotes the anomaly neighbourhood out of the rings
		// before building evidence, so degraded-mode verdicts see exactly
		// the full-fidelity rows they correlate against.
		p.det.promote = p.promoteNeighbourhood
	}
	return p, nil
}

// DB returns the warehouse the pipeline loads. Only touch it after Stop:
// during the run it belongs to the loader goroutine — use WithDB for
// mid-run access.
func (p *Pipeline) DB() *mscopedb.DB { return p.db }

// WithDB runs fn with exclusive access to the warehouse and blocks
// until it returns. While the pipeline runs, fn executes on the loader
// goroutine between records — ingest pauses for exactly the query's
// duration, and fn sees a consistent snapshot with no appender racing
// it. After the loader exits (Stop, or a remote drain) fn runs on the
// caller. This is what lets `mscope serve` query a live warehouse.
func (p *Pipeline) WithDB(fn func(db *mscopedb.DB)) {
	done := make(chan struct{})
	wrapped := func(db *mscopedb.DB) {
		defer close(done)
		fn(db)
	}
	select {
	case p.dbReqs <- wrapped:
		<-done
	case <-p.loadDone:
		fn(p.db)
	}
}

// Start launches the pipeline goroutines.
func (p *Pipeline) Start() {
	p.mu.Lock()
	if p.running {
		p.mu.Unlock()
		return
	}
	p.running = true
	p.started = time.Now()
	p.mu.Unlock()
	if !p.cfg.remote {
		go p.tailLoop()
	}
	go p.loader()
}

// Stop drains and joins the pipeline; safe to call once. It returns the
// first loader error (an append that failed), if any — parse-level damage
// is not an error here, it is quarantine policy.
func (p *Pipeline) Stop() error {
	p.mu.Lock()
	if !p.running {
		p.mu.Unlock()
		return fmt.Errorf("stream: pipeline not started")
	}
	already := p.stopped
	p.stopped = true
	p.mu.Unlock()
	if !already {
		if p.cfg.remote {
			// No tail loop owns the record channel in remote mode; the
			// caller guarantees every feeder has quiesced before Stop.
			close(p.recs)
		} else {
			close(p.stopCh)
		}
	}
	<-p.loadDone
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loadErr
}

// Alerts returns the alerts raised so far, in raise order.
func (p *Pipeline) Alerts() []Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Alert, len(p.alerts))
	copy(out, p.alerts)
	return out
}

// tailLoop discovers and polls sources until stopped, then performs the
// shutdown drain: read every file to EOF, flush partial lines, close the
// parser pipes, join the parsers, and close the record channel so the
// loader can finish.
func (p *Pipeline) tailLoop() {
	obs := selfobs.NewBuf()
	defer obs.Close()
	ticker := time.NewTicker(p.cfg.Poll)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			p.scan()
			// Drain to EOF: keep polling while bytes still arrive (a
			// producer may race the shutdown), bounded so a still-live
			// writer cannot pin us here forever.
			for pass := 0; pass < 100; pass++ {
				if p.pollAll() == 0 {
					break
				}
			}
			p.flushAll()
			p.closePipes()
			p.parserWG.Wait()
			close(p.recs)
			return
		case <-ticker.C:
			p.scan()
			// The span is recorded only for cycles that moved bytes; an
			// un-Ended span is discarded for free, so idle polls cost
			// nothing in the telemetry either.
			sp := obs.Begin(selfobs.PipeLive, "tail", "poll", "")
			if n := p.pollAll(); n > 0 {
				sp.End(int64(n), 0)
			}
		}
	}
}

// scan discovers newly appeared streamable files — logs can show up after
// startup (a monitor started late, a tier recovered).
func (p *Pipeline) scan() {
	entries, err := os.ReadDir(p.cfg.LogDir)
	if err != nil {
		return // the directory may not exist yet
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // deterministic discovery order
	for _, name := range names {
		full := filepath.Join(p.cfg.LogDir, name)
		p.mu.Lock()
		_, known := p.byPath[full]
		p.mu.Unlock()
		if known || !Streamable(p.cfg.Plan, name) {
			continue
		}
		p.addSource(full, name)
	}
}

// resumableAtOffset reports whether a binding's format can restart
// mid-file: per-line formats resynchronize at any line boundary (a torn
// first line is quarantined), but anything that consumes a file header —
// collectl's column row, the slow log's HeaderLines — must re-read from
// byte zero (already-loaded records are then dropped by count instead).
func resumableAtOffset(b transform.Binding) bool {
	switch b.Parser {
	case "token", "lines":
		return b.Instructions.HeaderLines == 0
	default:
		return false
	}
}

// resumePoint consults the ingest ledger for where a source restarts:
// byte-resumable formats return the checkpointed offset and carry the
// consumed count forward; header-carrying formats re-read from zero and
// drop already-consumed records by count instead. The skip distance is
// the larger of the table's rows and the ledger's consumed count: equal
// for full-fidelity sessions, but a degraded session consumes (rolls up,
// sheds, promotes) far more records than it appends, and re-processing
// those would duplicate every previously promoted row.
func (p *Pipeline) resumePoint(s *source) int64 {
	off, known := p.db.LatestIngestOffset(s.path)
	if !known || off <= 0 {
		return 0
	}
	if resumableAtOffset(s.binding) {
		if n, ok := p.db.LatestIngestRows(s.path); ok {
			s.consumedBase.Store(n)
		}
		return off
	}
	var skip int64
	if p.db.HasTable(s.table) {
		if t, terr := p.db.Table(s.table); terr == nil {
			skip = int64(t.Rows())
		}
	}
	if n, ok := p.db.LatestIngestRows(s.path); ok && n > skip {
		skip = n
	}
	s.skipEntries.Store(skip)
	return 0
}

// addSource registers one file: resolve its binding, decide the resume
// point from the ingest ledger, start its tailer and parser.
func (p *Pipeline) addSource(full, name string) {
	b, _ := p.cfg.Plan.Find(name)
	parser, err := parsers.Get(b.Parser)
	if err != nil {
		return // a plan naming an unknown parser skips the file
	}
	host := transform.HostOf(full, b)
	s := &source{
		path:    full,
		name:    name,
		binding: b,
		table:   host + "_" + b.TableSuffix,
		host:    host,
		parser:  parser,
		state:   StateActive,
	}
	offset := p.resumePoint(s)
	s.tail = NewTailer(full, offset)
	pr, pw := io.Pipe()
	s.pw = pw
	p.wm.Register(full)
	p.parserWG.Add(1)
	go p.runParser(s, pr)
	p.mu.Lock()
	p.sources = append(p.sources, s)
	p.byPath[full] = s
	p.mu.Unlock()
}

// snapshot returns the current source list.
func (p *Pipeline) snapshot() []*source {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*source, len(p.sources))
	copy(out, p.sources)
	return out
}

// pollAll polls every active source once and returns total new bytes.
func (p *Pipeline) pollAll() int {
	total := 0
	for _, s := range p.snapshot() {
		if st, _ := s.status(); st != StateActive {
			continue
		}
		n, err := s.tail.Poll(s.write)
		total += n
		if err != nil && !isClosedPipe(err) {
			s.setState(StateFailed, err)
			p.wm.Finish(s.path)
		}
	}
	return total
}

// flushAll emits every buffered partial last line.
func (p *Pipeline) flushAll() {
	for _, s := range p.snapshot() {
		if st, _ := s.status(); st != StateActive {
			continue
		}
		if err := s.tail.Flush(s.write); err != nil && !isClosedPipe(err) {
			s.setState(StateFailed, err)
		}
	}
}

// closePipes EOFs every parser.
func (p *Pipeline) closePipes() {
	for _, s := range p.snapshot() {
		s.pw.Close()
	}
}

func isClosedPipe(err error) bool {
	return err == io.ErrClosedPipe
}

// runParser feeds one source's pipe through its mScopeParser — degraded
// mode when the parser supports it, so malformed regions are counted and
// skipped with the same record-boundary resync the batch quarantine uses.
func (p *Pipeline) runParser(s *source, pr *io.PipeReader) {
	defer p.parserWG.Done()
	obs := selfobs.NewBuf()
	defer obs.Close()
	var emitted int64
	emit := func(e mxml.Entry) error {
		r := rec{src: s, entry: e}
		// Try the fast path first; a full channel is a backpressure stall —
		// counted, then waited out. The blocking send is the pressure edge
		// that stops the tailers, so the stall counter is exactly "times a
		// parser caught the loader behind".
		select {
		case p.recs <- r:
		default:
			p.stalls.Add(1)
			obsStalls.Add(1)
			p.recs <- r
		}
		emitted++
		return nil
	}
	sink := func(parsers.Malformed) error {
		s.quarantined.Add(1)
		return nil
	}
	// One span covers the source's whole parse: its duration is the
	// source's lifetime (the parser blocks on the pipe between polls), so
	// the interesting fields are the record and quarantine totals.
	sp := obs.Begin(selfobs.PipeLive, "parse", "source", s.name)
	var err error
	if dp, ok := s.parser.(parsers.DegradedParser); ok {
		err = dp.ParseDegraded(pr, s.binding.Instructions, emit, sink)
	} else {
		err = s.parser.Parse(pr, s.binding.Instructions, emit)
	}
	sp.End(emitted, s.quarantined.Load())
	if err != nil {
		s.parseErrs.Add(1)
		// A strict parser died; unblock the tailer permanently and stop
		// counting this source against the watermark.
		s.setState(StateFailed, err)
		p.wm.Finish(s.path)
		pr.CloseWithError(err)
		return
	}
	pr.Close()
}

// loader is the single consumer: append (or degrade) rows, advance
// frontiers, enforce the error budget, drive the fidelity controller, and
// run the detector as the watermark moves. The PIT statistic and the
// watermark are fed for every processed record regardless of fidelity
// state — detection must keep working precisely when the pipeline is
// degraded, or degradation would be blindness.
func (p *Pipeline) loader() {
	defer close(p.loadDone)
	obs := selfobs.NewBuf()
	defer obs.Close()
	p.loaderObs = obs
	defer func() { p.loaderObs = nil }()
	var lastLow int64
load:
	for {
		select {
		case r, ok := <-p.recs:
			if !ok {
				break load
			}
			p.processRec(r, obs, &lastLow)
			if r.done != nil {
				r.done()
			}
		case fn := <-p.dbReqs:
			// A WithDB caller borrows the warehouse between records.
			fn(p.db)
		}
	}
	// Channel closed: every parser is done. Classify the remainder with
	// the gating relaxed — all evidence has arrived — then flush the open
	// rollup cells and checkpoint. Detection runs before the final flush
	// so promotion still finds its ring rows.
	sp := obs.Begin(selfobs.PipeLive, "detect", "final", "")
	alerts := p.det.advance(finalLow, true, p.cfg.Window, time.Now)
	sp.End(int64(len(alerts)), 0)
	p.raise(alerts)
	p.flushRollup(finalLow, true)
	sp = obs.Begin(selfobs.PipeLive, "checkpoint", "final", "")
	p.checkpoint()
	// With a spill-backed warehouse, commit the segment store at the same
	// cut as the ledger rows just written; a crash after this point loses
	// nothing from the session. No-op for in-memory warehouses.
	if err := p.db.Checkpoint(); err != nil {
		p.recordLoadErr(err)
	}
	sp.End(int64(p.rowsTotal.Load()), 0)
}

// processRec is the loader's per-record work: append (or degrade) the row,
// advance frontiers, enforce the error budget, drive the fidelity
// controller, and run the detector as the watermark moves.
func (p *Pipeline) processRec(r rec, obs *selfobs.Buf, lastLow *int64) {
	if p.cfg.ConsumerDelay > 0 {
		time.Sleep(p.cfg.ConsumerDelay)
	}
	s := r.src
	if st, _ := s.status(); st == StateRejected {
		return
	}
	s.consumed.Add(1)
	us, hasTS := s.eventTimeUS(&r.entry)
	if s.skipEntries.Load() > 0 {
		s.skipEntries.Add(-1)
	} else {
		s.processed.Add(1)
		if s.host == "apache" && s.binding.TableSuffix == "event" {
			p.observeFront(&r.entry)
		}
		if st := p.fidState(); st == fidelity.Full || !hasTS {
			// Full fidelity — and the degraded modes' fallback for the
			// rare record with no usable clock, which neither the ring
			// nor the rollup grid could place.
			if s.app == nil {
				s.app = newAppender(p.db, s.table)
			}
			err := s.app.append(r.entry)
			// The table holds the values now, not the entry's field slice:
			// recycle it so the next parsed or wire-decoded record reuses
			// the storage. Ring-retained entries never come through here.
			r.entry.Release()
			if err != nil {
				s.setState(StateFailed, err)
				p.wm.Finish(s.path)
				p.recordLoadErr(err)
				return
			}
			s.rows.Add(1)
			p.rowsTotal.Add(1)
			obsRowsAppended.Add(1)
		} else {
			p.fid.degrade(s, &r.entry, us, st)
		}
	}
	if hasTS {
		p.wm.Observe(s.path, us)
		s.frontierUS.Store(us)
	}
	if q := s.quarantined.Load(); q > 0 {
		total := s.processed.Load() + q
		if total >= minBudgetSamples && float64(q)/float64(total) > p.cfg.ErrorBudget {
			s.setState(StateRejected, fmt.Errorf(
				"stream: %s: corrupt-record ratio %.4f exceeds error budget %.4f (%d of %d)",
				s.name, float64(q)/float64(total), p.cfg.ErrorBudget, q, total))
			p.wm.Finish(s.path)
		}
	}
	if p.fid != nil {
		p.fid.sinceEval++
		if p.fid.sinceEval >= p.fid.opts.EvalEvery {
			p.fid.sinceEval = 0
			p.evalPressure()
		}
	}
	if low, ok := p.wm.Low(); ok && low != finalLow && low >= *lastLow+p.det.windowUS {
		*lastLow = low
		obsWatermarkMoves.Add(1)
		p.evalPressure()
		p.flushRollup(low, false)
		sp := obs.Begin(selfobs.PipeLive, "detect", "advance", "")
		alerts := p.det.advance(low, false, p.cfg.Window, time.Now)
		sp.End(int64(len(alerts)), 0)
		p.raise(alerts)
		p.expireRings(low)
	}
}

// observeFront folds a front-tier event into the online PIT statistic.
func (p *Pipeline) observeFront(e *mxml.Entry) {
	uaS, ok1 := e.Get("ua")
	udS, ok2 := e.Get("ud")
	if !ok1 || !ok2 {
		return
	}
	ua, err1 := strconv.ParseInt(uaS, 10, 64)
	ud, err2 := strconv.ParseInt(udS, 10, 64)
	if err1 != nil || err2 != nil {
		return
	}
	p.det.observe(ua, ud)
}

// raise records new alerts and notifies the callback.
func (p *Pipeline) raise(alerts []Alert) {
	for _, a := range alerts {
		p.mu.Lock()
		a.ID = len(p.alerts) + 1
		p.alerts = append(p.alerts, a)
		cb := p.cfg.OnAlert
		p.mu.Unlock()
		if cb != nil {
			cb(a)
		}
	}
}

// checkpoint writes the per-source ledger rows: the byte offset fed to
// the parser and the records consumed. Consumption — not table rows — is
// what a restarted header-format resume must skip: under degraded
// fidelity most consumed records were rolled up or shed rather than
// appended, and re-processing them would duplicate every promoted row.
// For full-fidelity sessions the two counts are identical, so the ledger
// column keeps its historical meaning there. A later `mscope ingest` over
// the same directory, or a restarted live session, resumes from here
// instead of duplicating rows.
func (p *Pipeline) checkpoint() {
	// Sorted by source path: single-process discovery already yields this
	// order, and remote sources — whose Open order depends on network
	// arrival — must checkpoint identically for the ledger to be
	// byte-equal across deployment shapes.
	snap := p.snapshot()
	sort.Slice(snap, func(i, j int) bool { return snap[i].path < snap[j].path })
	for _, s := range snap {
		s.setState(StateDone, nil)
		consumed := s.consumedBase.Load() + s.consumed.Load()
		if !p.db.HasTable(s.table) && consumed == 0 {
			continue
		}
		if err := p.db.RecordIngestAt(s.table, s.path, int(consumed),
			s.committedOff(), simtime.Epoch); err != nil {
			p.recordLoadErr(err)
		}
	}
}

// padUS is the classification pad in microseconds — the slice margin the
// verdict correlates over, and therefore half of the promotion horizon.
func (p *Pipeline) padUS() int64 { return core.ClassifyPad.Microseconds() }
