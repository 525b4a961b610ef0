package core

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
)

// netLagSeries derives an inter-tier network-lag series from two adjacent
// event tables: for every (reqid, seq) pair present in both, the lag is
// the downstream Upstream-Arrival minus the upstream Downstream-Sending
// timestamp — pure wire transit, since UA is stamped on message arrival
// (before any queueing) and DS once the sender holds a connection. Lags
// are bucketed by the upstream DS time and the per-bucket maximum is kept,
// so a jitter episode stands out of the baseline. A per-request upstream
// joins the seq-0 visit of a per-query downstream (its DS marks the first
// query's send), which samples one lag per request — enough for a series.
func netLagSeries(db *mscopedb.DB, up, down string, window time.Duration) (*mscopedb.Series, error) {
	sends, err := eventStamps(db, up+"_event", "ds")
	if err != nil {
		return nil, err
	}
	arrivals, err := eventStamps(db, down+"_event", "ua")
	if err != nil {
		return nil, err
	}
	w := window.Microseconds()
	if w <= 0 {
		return nil, fmt.Errorf("core: non-positive netlag window %v", window)
	}
	buckets := make(map[int64]float64)
	for key, ds := range sends {
		ua, ok := arrivals[key]
		if !ok || ds == 0 || ua < ds {
			continue
		}
		b := ds - ds%w
		if lag := float64(ua - ds); lag > buckets[b] {
			buckets[b] = lag
		}
	}
	if len(buckets) == 0 {
		return nil, nil
	}
	s := &mscopedb.Series{
		StartMicros: make([]int64, 0, len(buckets)),
		Values:      make([]float64, 0, len(buckets)),
	}
	for b := range buckets {
		s.StartMicros = append(s.StartMicros, b)
	}
	sort.Slice(s.StartMicros, func(i, j int) bool { return s.StartMicros[i] < s.StartMicros[j] })
	for _, b := range s.StartMicros {
		s.Values = append(s.Values, buckets[b])
	}
	return s, nil
}

// eventStamps extracts one timestamp column of an event table keyed by
// (reqid, seq), skipping rows without the stamp (leaf tiers log "-" for DS).
func eventStamps(db *mscopedb.DB, table, col string) (map[visitKey]int64, error) {
	tbl, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	reqCI, tsCI, qCI := tbl.ColIndex("reqid"), tbl.ColIndex(col), tbl.ColIndex("q")
	if reqCI < 0 || tsCI < 0 {
		return nil, fmt.Errorf("core: %s lacks reqid/%s columns", table, col)
	}
	cols := tbl.Columns()
	out := make(map[visitKey]int64, tbl.Rows())
	for r := 0; r < tbl.Rows(); r++ {
		id := tbl.Str(reqCI, r)
		if id == "" {
			continue
		}
		ts, err := eventMicros(tbl, cols, tsCI, r)
		if err != nil {
			return nil, err
		}
		if ts == 0 {
			continue
		}
		seq := int64(0)
		if qCI >= 0 {
			if seq, err = eventMicros(tbl, cols, qCI, r); err != nil {
				return nil, err
			}
		}
		out[visitKey{id, seq}] = ts
	}
	return out, nil
}

// visitKey names one visit of a request at a tier: its reqid and query
// sequence number.
type visitKey struct {
	id  string
	seq int64
}

// eventMicros reads a numeric event cell that schema inference may have
// typed as int (pure numeric column) or string (column mixing numbers with
// the "-" no-downstream marker).
func eventMicros(tbl *mscopedb.Table, cols []mscopedb.Column, ci, row int) (int64, error) {
	switch cols[ci].Type {
	case mscopedb.TInt:
		return tbl.Int(ci, row), nil
	case mscopedb.TString:
		s := tbl.Str(ci, row)
		if s == "-" || s == "" {
			return 0, nil
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("core: cell %q in %s.%s: %w", s, tbl.Name(), cols[ci].Name, err)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("core: %s.%s: unsupported type %v", tbl.Name(), cols[ci].Name, cols[ci].Type)
	}
}
