package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/bottleneck"
	"github.com/gt-elba/milliscope/internal/core"
	"github.com/gt-elba/milliscope/internal/des"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/simtime"
	"github.com/gt-elba/milliscope/internal/stream"
	"github.com/gt-elba/milliscope/internal/transform"
)

// The shared corpus: one dbio-family trial of 60 s with 150 users and
// three 350 ms redo-log flushes on the database disk. Each flush is a
// millibottleneck that every ingest path must diagnose as disk-io@mysql.
const (
	trialDuration = 60 * time.Second
	trialUsers    = 150
	flushLength   = 350 * time.Millisecond
)

var flushAt = []time.Duration{10 * time.Second, 30 * time.Second, 50 * time.Second}

// sourceFile is one streamable monitor log of the corpus, cut into
// records so that writers can append whole records and checks can count
// them without asking the program under test.
type sourceFile struct {
	Name  string
	Table string
	Data  []byte
	// Head is the length of the header that precedes the first record.
	Head int
	// Ends[k] is the byte offset just past record k.
	Ends []int
}

func (f *sourceFile) records() int { return len(f.Ends) }

// corpus is the generated input every workload consumes.
type corpus struct {
	Dir   string // holds exactly the streamable logs
	Files []*sourceFile
	// TrialStartUS is the simulated trial's epoch in microseconds; the
	// injected flushes start at TrialStartUS + flushAt[i].
	TrialStartUS int64
}

func (c *corpus) records() int {
	n := 0
	for _, f := range c.Files {
		n += f.records()
	}
	return n
}

// tableRecords returns the expected row count of every warehouse table.
func (c *corpus) tableRecords() map[string]int {
	out := map[string]int{}
	for _, f := range c.Files {
		out[f.Table] += f.records()
	}
	return out
}

// trialConfig is the simulator input for one seed.
func trialConfig(seed int64, logDir string) core.ExperimentConfig {
	cfg := core.ScenarioDBIO(logDir)
	cfg.Name = "mscopebench-dbio"
	cfg.Ntier.Duration = trialDuration
	cfg.Ntier.Users = trialUsers
	cfg.Ntier.Seed = seed
	cfg.Injectors = nil
	for _, at := range flushAt {
		cfg.Injectors = append(cfg.Injectors,
			bottleneck.DBLogFlush{At: des.Time(at), Duration: flushLength})
	}
	return cfg
}

// makeCorpus runs the simulator for seed and keeps only the logs the live
// and distributed paths can tail, so every workload loads the same rows.
func makeCorpus(seed int64, dir string) (*corpus, error) {
	raw := filepath.Join(dir, "raw")
	_, err := core.RunExperiment(trialConfig(seed, raw))
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	c := &corpus{Dir: filepath.Join(dir, "logs")}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return nil, err
	}
	plan := transform.DefaultPlan()
	entries, err := os.ReadDir(raw)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !stream.Streamable(plan, e.Name()) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(raw, e.Name()))
		if err != nil {
			return nil, err
		}
		f, err := splitRecords(plan, e.Name(), data)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(c.Dir, e.Name()), data, 0o644); err != nil {
			return nil, err
		}
		c.Files = append(c.Files, f)
	}
	if err := os.RemoveAll(raw); err != nil {
		return nil, err
	}
	sort.Slice(c.Files, func(i, j int) bool { return c.Files[i].Name < c.Files[j].Name })
	if len(c.Files) != 8 {
		return nil, fmt.Errorf("corpus: want 8 streamable logs, got %d", len(c.Files))
	}
	c.TrialStartUS = simtime.Epoch.UnixMicro()
	return c, nil
}

// splitRecords finds record boundaries from the log format alone: a
// format with a record-start pattern (the multi-line slow log) opens a
// record at each match; every other format is one record per line after
// its header.
func splitRecords(plan *transform.Plan, name string, data []byte) (*sourceFile, error) {
	b, ok := plan.Find(name)
	if !ok {
		return nil, fmt.Errorf("corpus: no binding for %s", name)
	}
	host := name
	if i := strings.IndexByte(name, '_'); i > 0 {
		host = name[:i]
	}
	f := &sourceFile{Name: name, Table: host + "_" + b.TableSuffix, Data: data}
	var start *regexp.Regexp
	if p, err := parsers.Get(b.Parser); err == nil {
		if cp, ok := p.(parsers.ChunkParser); ok {
			if bd, ok := cp.Chunkable(b.Instructions); ok {
				start = bd.Start
			}
		}
	}
	line, off := 0, 0
	opened := false
	for off < len(data) {
		end := bytes.IndexByte(data[off:], '\n')
		next := len(data)
		if end >= 0 {
			next = off + end + 1
		}
		text := data[off:next]
		var isStart bool
		switch {
		case start != nil:
			isStart = start.Match(bytes.TrimRight(text, "\r\n"))
		default:
			isStart = line >= b.Instructions.HeaderLines && !bytes.HasPrefix(text, []byte("#")) &&
				len(bytes.TrimSpace(text)) > 0
		}
		if isStart {
			if opened {
				f.Ends = append(f.Ends, off)
			} else {
				f.Head = off
			}
			opened = true
		}
		line++
		off = next
	}
	if opened {
		f.Ends = append(f.Ends, len(data))
	}
	if len(f.Ends) == 0 {
		return nil, fmt.Errorf("corpus: %s holds no records", name)
	}
	return f, nil
}

// headCorpus writes the first n records of every source into dir: the
// small input cold starts use, so a start-up measurement times start-up
// and not a drain.
func (c *corpus) headCorpus(dir string, n int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range c.Files {
		k := n
		if k > f.records() {
			k = f.records()
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name), f.Data[:f.Ends[k-1]], 0o644); err != nil {
			return err
		}
	}
	return nil
}
