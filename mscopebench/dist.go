package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/agentd"
	"github.com/gt-elba/milliscope/internal/collector"
	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// agentTiers splits the corpus between the two agents: one owns the web
// and application tiers' logs, the other the clustering middleware's and
// the database's.
var agentTiers = [][]string{{"apache", "tomcat"}, {"cjdbc", "mysql"}}

type distResult struct {
	db     *mscopedb.DB
	rows   int64
	wall   time.Duration
	col    collector.Status
	agents []agentd.Status
	alerts []verdict
	checks []string
}

// distRun is a collector with both agents attached.
type distRun struct {
	col    *collector.Collector
	agents []*agentd.Agent
	opened time.Duration
}

// startDist starts a collector and both agents over logDir and waits
// until every source is open; opened is how long that took.
func startDist(e *env, parent int, logDir string) (*distRun, error) {
	t0 := time.Now()
	r := &distRun{}
	var err error
	e.tr.do("collector.start", parent, func() {
		r.col, err = collector.New(collector.Config{Network: "tcp", Addr: "127.0.0.1:0"})
		if err == nil {
			err = r.col.Start()
		}
	})
	if err != nil {
		return nil, err
	}
	for i, tiers := range agentTiers {
		tiers := tiers
		var a *agentd.Agent
		e.tr.do("agentd.start", parent, func() {
			a, err = agentd.New(agentd.Config{
				ID:     fmt.Sprintf("agent-%d", i),
				Addr:   r.col.Addr().String(),
				LogDir: logDir,
				Own: func(name string) bool {
					for _, t := range tiers {
						if strings.HasPrefix(name, t+"_") {
							return true
						}
					}
					return false
				},
			})
			if err == nil {
				a.Start()
			}
		})
		if err != nil {
			_ = r.col.Stop()
			return nil, err
		}
		r.agents = append(r.agents, a)
	}
	want := int64(len(e.corp.Files))
	for r.col.Status().Opens < want {
		if time.Since(t0) > 10*time.Second {
			_ = r.stop(e, parent) // the timeout is the error worth reporting
			return nil, fmt.Errorf("only %d of %d sources opened after 10s", r.col.Status().Opens, want)
		}
		time.Sleep(50 * time.Microsecond)
	}
	r.opened = time.Since(t0)
	return r, nil
}

// stop stops the agents, each shipping to EOF and awaiting every ack,
// then the collector.
func (r *distRun) stop(e *env, parent int) error {
	var first error
	for _, a := range r.agents {
		var err error
		e.tr.do("agentd.stop", parent, func() { err = a.Stop() })
		if err != nil && first == nil {
			first = err
		}
	}
	var err error
	e.tr.do("collector.stop", parent, func() { err = r.col.Stop() })
	if err != nil && first == nil {
		first = err
	}
	return first
}

// distDrain ships the whole corpus through two agents into one collector.
func distDrain(e *env, parent int) (*distResult, error) {
	t0 := time.Now()
	r, err := startDist(e, parent, e.corp.Dir)
	if err != nil {
		return nil, err
	}
	if err := r.stop(e, parent); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	res := &distResult{wall: time.Since(t0), col: r.col.Status()}
	pipe := r.col.Pipeline()
	res.db = pipe.DB()
	res.rows = pipe.Status().Rows
	for _, a := range r.agents {
		res.agents = append(res.agents, a.Status())
	}
	for _, a := range pipe.Alerts() {
		w := a.Diagnosis.Window
		res.alerts = append(res.alerts, verdict{w.StartMicros, w.EndMicros, fmt.Sprintf("%s@%s", a.Diagnosis.Kind, a.Diagnosis.Node)})
	}
	res.checks = append(res.checks, checkVerdicts(e.corp, "dist", res.alerts)...)
	res.checks = append(res.checks, checkTables(e.corp, tableRows(res.db))...)
	if q := pipe.Status().Quarantined; q != 0 {
		res.checks = append(res.checks, fmt.Sprintf("dist quarantined %d records", q))
	}
	return res, nil
}

func runDist(e *env) (*outcome, error) {
	o := &outcome{}
	head := filepath.Join(e.work, "dist-head")
	if err := e.corp.headCorpus(head, 64); err != nil {
		return nil, err
	}
	defer os.RemoveAll(head)
	// Set-up: from the collector's listen until both agents have every
	// source open.
	err := o.coldStarts(setupRuns, func() (time.Duration, error) {
		r, err := startDist(e, 0, head)
		if err != nil {
			return 0, err
		}
		return r.opened, r.stop(e, 0)
	})
	if err != nil {
		return nil, err
	}
	if _, err := distDrain(e, 0); err != nil { // warm-up
		return nil, err
	}
	want := int64(e.corp.records())
	var last *distResult
	o.wall, o.cpu, err = phase(e.seconds, nil, func() (time.Duration, error) {
		if last != nil {
			last.db = nil
		}
		r, err := distDrain(e, 0)
		if err != nil {
			return 0, err
		}
		o.ops += want
		o.failed += max64(want-r.rows, 0)
		o.checks = append(o.checks, r.checks...)
		last = r
		return r.wall, nil
	})
	if err != nil {
		return nil, err
	}
	o.keep = last.db
	return o, checkDiagnose(o, e.corp, "dist", last.db)
}

func driveDist(e *env, parent int, m *metricSet) (int64, error) {
	r, err := distDrain(e, parent)
	if err != nil {
		return 0, err
	}
	if len(r.checks) > 0 {
		return 0, fmt.Errorf("dist checks: %v", r.checks)
	}
	var sent, recs, reconnects, dialErrs int64
	for _, a := range r.agents {
		sent += a.BatchesSent
		recs += a.RecordsSent
		reconnects += a.Reconnects
		dialErrs += a.DialErrors
	}
	m.add("dist.rows_per_s", "1/s", float64(r.rows)/r.wall.Seconds(), int(r.rows))
	m.add("dist.wire_bytes_per_row", "B", float64(r.col.WireRxBytes)/float64(r.rows), int(r.rows))
	m.add("agentd.batches_sent", "count", float64(sent), 0)
	m.add("agentd.records_per_batch", "count", float64(recs)/float64(max64(sent, 1)), int(sent))
	m.add("agentd.reconnects", "count", float64(reconnects), 0)
	m.add("agentd.dial_errors", "count", float64(dialErrs), 0)
	m.add("collector.batches_in", "count", float64(r.col.BatchesIn), 0)
	m.add("collector.acks_out", "count", float64(r.col.AcksOut), 0)
	m.add("collector.denials", "count", float64(r.col.Denials), 0)
	return r.rows, nil
}
