package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: a p99 needs 1,000 samples, a median 20.
const minTail = 10

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether a metric or workload name fits the grammar
// the result format promises.
func validName(s string) bool { return metricName.MatchString(s) }

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. ok is
// false when fewer than minTail samples lie beyond it, so a tail is never
// read off too few samples.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minTail {
		return 0, false
	}
	return s[rank], true
}

// quartiles follows Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so the steadiness mode reads spreads the same way
// an external check of the results does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// rowSample is one sampler reading: when it was taken, relative to the
// writer's start, and the rows every source had loaded by then.
type rowSample struct {
	At   time.Duration
	Rows []int64
}

// freshness returns, for every record, the delay from its scheduled
// write time (sched[source][k], relative to the writer's start) to the
// first sample in which its source's row count covers it. Records that no
// sample covers are counted in missed and left out.
func freshness(sched [][]time.Duration, samples []rowSample) (out []time.Duration, missed int) {
	for src, times := range sched {
		j := 0
		for k, due := range times {
			for j < len(samples) && (samples[j].At < due || samples[j].Rows[src] < int64(k+1)) {
				j++
			}
			if j == len(samples) {
				missed += len(times) - k
				break
			}
			out = append(out, samples[j].At-due)
		}
	}
	return out, missed
}

// lateRows counts the freshness values beyond deadline.
func lateRows(fresh []time.Duration, deadline time.Duration) int {
	n := 0
	for _, f := range fresh {
		if f > deadline {
			n++
		}
	}
	return n
}

// metric is one printed measurement.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// N is the sample count behind a percentile or mean; 0 for a count
	// or a ratio of totals.
	N int
}

type metricSet struct {
	list []metric
	idx  map[string]int
}

func (m *metricSet) add(name, unit string, v float64, n int) {
	if !validName(name) {
		panic(fmt.Sprintf("metric name %q breaks the name grammar", name))
	}
	if m.idx == nil {
		m.idx = map[string]int{}
	}
	if i, ok := m.idx[name]; ok {
		m.list[i] = metric{name, unit, v, n}
		return
	}
	m.idx[name] = len(m.list)
	m.list = append(m.list, metric{name, unit, v, n})
}

// addPct adds the p-quantile of xs, or records why it cannot be given.
func (m *metricSet) addPct(name, unit string, xs []float64, p float64) error {
	v, ok := percentile(xs, p)
	if !ok {
		return fmt.Errorf("%s: %d samples leave fewer than %d beyond p%g", name, len(xs), minTail, p*100)
	}
	m.add(name, unit, v, len(xs))
	return nil
}

func (m *metricSet) get(name string) (metric, bool) {
	i, ok := m.idx[name]
	if !ok {
		return metric{}, false
	}
	return m.list[i], true
}
