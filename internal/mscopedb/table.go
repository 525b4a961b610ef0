// Package mscopedb implements mScopeDB (paper Section III-C): a dynamic
// data warehouse whose tables are created on the fly by the import
// pipeline. Four static metadata tables record experiment configuration
// and data-loading provenance; dynamic tables hold the monitoring data.
//
// Storage is columnar and typed (int64, float64, microsecond-epoch time,
// string) — the shape the bottom-up schema inference of the XMLtoCSV
// converter produces — and a small scan/filter/window-aggregate engine
// serves the analysis layer.
package mscopedb

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/gt-elba/milliscope/internal/mxml"
)

// Type is a column's storage type.
type Type int

// Column types, narrowest first (the inference lattice's numeric arm).
const (
	TInt Type = iota + 1
	TFloat
	TTime
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TTime:
		return "time"
	case TString:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType inverts Type.String for schema sidecar files.
func ParseType(s string) (Type, error) {
	switch s {
	case "int":
		return TInt, nil
	case "float":
		return TFloat, nil
	case "time":
		return TTime, nil
	case "string":
		return TString, nil
	default:
		return 0, fmt.Errorf("mscopedb: unknown type %q", s)
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type Type
}

// colData holds one column's values; exactly one slice is used, selected
// by the column type. Times are microsecond epochs. The unexported intern
// state is skipped by gob and rebuilt lazily after Load.
type colData struct {
	Ints   []int64
	Floats []float64
	Times  []int64
	Strs   []string

	// intern deduplicates low-cardinality string columns (device names,
	// HTTP methods, status codes): repeated values share one backing
	// string instead of each pinning a slice of its source log line.
	// Past internCap distinct values the column is treated as
	// high-cardinality and interning shuts off for good.
	intern    map[string]string
	internOff bool
}

// internCap bounds the per-column intern map; a column that exceeds it is
// high-cardinality (URLs, free text) and not worth deduplicating.
const internCap = 256

// Table is one warehouse table.
type Table struct {
	name   string
	cols   []Column
	colIdx map[string]int
	data   []colData
	rows   int

	// idx caches sorted-order permutations per column for range scans;
	// guarded by idxMu, invalidated by staleness checks against rows.
	idxMu sync.Mutex
	idx   map[int]*colIndex

	// seal, when non-nil, makes the table spill-backed: rows [0, seal.rows)
	// live in immutable on-disk segments and data holds only the in-memory
	// tail. Row numbers stay global; the accessors translate.
	seal *sealedPart
}

// NewTable builds an empty table; column names must be unique and
// non-empty.
func NewTable(name string, cols []Column) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("mscopedb: table with empty name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("mscopedb: table %q with no columns", name)
	}
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("mscopedb: table %q column %d has empty name", name, i)
		}
		if c.Type < TInt || c.Type > TString {
			return nil, fmt.Errorf("mscopedb: table %q column %q has invalid type", name, c.Name)
		}
		if _, dup := idx[c.Name]; dup {
			return nil, fmt.Errorf("mscopedb: table %q duplicate column %q", name, c.Name)
		}
		idx[c.Name] = i
	}
	colsCopy := make([]Column, len(cols))
	copy(colsCopy, cols)
	return &Table{
		name:   name,
		cols:   colsCopy,
		colIdx: idx,
		data:   make([]colData, len(cols)),
	}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// Columns returns a copy of the schema.
func (t *Table) Columns() []Column {
	out := make([]Column, len(t.cols))
	copy(out, t.cols)
	return out
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// ColType returns column i's type without copying the schema; i must be
// in [0, NumCols()).
func (t *Table) ColType(i int) Type { return t.cols[i].Type }

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	i, ok := t.colIdx[name]
	if !ok {
		return -1
	}
	return i
}

// Grow preallocates column storage for n additional rows, so a bulk load
// with a known row count (the direct ingest path) appends without any
// intermediate slice doublings.
func (t *Table) Grow(n int) {
	if n <= 0 {
		return
	}
	for i := range t.data {
		d := &t.data[i]
		switch t.cols[i].Type {
		case TInt:
			d.Ints = growSlice(d.Ints, n)
		case TFloat:
			d.Floats = growSlice(d.Floats, n)
		case TTime:
			d.Times = growSlice(d.Times, n)
		case TString:
			d.Strs = growSlice(d.Strs, n)
		}
	}
}

func growSlice[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	ns := make([]E, len(s), len(s)+n)
	copy(ns, s)
	return ns
}

// Append adds one row; values must match the schema positionally with Go
// types int64, float64, time.Time and string.
func (t *Table) Append(values ...any) error {
	if len(values) != len(t.cols) {
		return fmt.Errorf("mscopedb: %s: %d values for %d columns", t.name, len(values), len(t.cols))
	}
	for i, v := range values {
		switch t.cols[i].Type {
		case TInt:
			x, ok := v.(int64)
			if !ok {
				return fmt.Errorf("mscopedb: %s.%s: %T is not int64", t.name, t.cols[i].Name, v)
			}
			t.data[i].Ints = append(t.data[i].Ints, x)
		case TFloat:
			x, ok := v.(float64)
			if !ok {
				return fmt.Errorf("mscopedb: %s.%s: %T is not float64", t.name, t.cols[i].Name, v)
			}
			t.data[i].Floats = append(t.data[i].Floats, x)
		case TTime:
			x, ok := v.(time.Time)
			if !ok {
				return fmt.Errorf("mscopedb: %s.%s: %T is not time.Time", t.name, t.cols[i].Name, v)
			}
			t.data[i].Times = append(t.data[i].Times, x.UnixMicro())
		case TString:
			x, ok := v.(string)
			if !ok {
				return fmt.Errorf("mscopedb: %s.%s: %T is not string", t.name, t.cols[i].Name, v)
			}
			t.data[i].Strs = append(t.data[i].Strs, x)
		}
	}
	t.rows++
	return t.maybeSpill()
}

// AppendStrings parses one CSV-shaped row against the schema (the import
// path). Empty cells load as the column's zero value except strings, which
// load as the empty string.
func (t *Table) AppendStrings(raw []string) error {
	if len(raw) != len(t.cols) {
		return fmt.Errorf("mscopedb: %s: %d cells for %d columns", t.name, len(raw), len(t.cols))
	}
	for i, s := range raw {
		switch t.cols[i].Type {
		case TInt:
			var x int64
			if s != "" {
				var err error
				x, err = strconv.ParseInt(s, 10, 64)
				if err != nil {
					return fmt.Errorf("mscopedb: %s.%s: parse int %q: %w", t.name, t.cols[i].Name, s, err)
				}
			}
			t.data[i].Ints = append(t.data[i].Ints, x)
		case TFloat:
			var x float64
			if s != "" {
				var err error
				x, err = strconv.ParseFloat(s, 64)
				if err != nil {
					return fmt.Errorf("mscopedb: %s.%s: parse float %q: %w", t.name, t.cols[i].Name, s, err)
				}
			}
			t.data[i].Floats = append(t.data[i].Floats, x)
		case TTime:
			var x int64
			if s != "" {
				ts, err := time.Parse(mxml.TimeLayout, s)
				if err != nil {
					return fmt.Errorf("mscopedb: %s.%s: parse time %q: %w", t.name, t.cols[i].Name, s, err)
				}
				x = ts.UnixMicro()
			}
			t.data[i].Times = append(t.data[i].Times, x)
		case TString:
			d := &t.data[i]
			d.Strs = append(d.Strs, d.internStr(s))
		}
	}
	t.rows++
	return t.maybeSpill()
}

// internStr returns a shared copy of s for low-cardinality columns. The
// clone matters beyond deduplication: stored cells stop referencing their
// source line (the direct ingest path appends substrings of whole log
// lines), so repeated values pin one small string instead of many lines.
func (d *colData) internStr(s string) string {
	if s == "" || d.internOff {
		return s
	}
	if v, ok := d.intern[s]; ok {
		return v
	}
	if len(d.intern) >= internCap {
		d.internOff = true
		d.intern = nil
		return s
	}
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
	c := strings.Clone(s)
	d.intern[c] = c
	return c
}

// Widen converts a column to a wider storage type in place, rewriting the
// stored cells: int → float keeps the numeric values; any type → string
// re-renders each cell. The streaming incremental ingest uses it when a
// later record contradicts the schema inferred from the first records
// (e.g. a downstream timestamp that is numeric for most requests but "-"
// for static ones) — exactly the widening the batch converter's bottom-up
// inference would have produced had it seen the whole file.
func (t *Table) Widen(col string, to Type) error {
	ci := t.ColIndex(col)
	if ci < 0 {
		return fmt.Errorf("mscopedb: %s: no column %q", t.name, col)
	}
	from := t.cols[ci].Type
	if from == to {
		return nil
	}
	// Sealed segments are immutable and carry the old schema; pull them
	// back into the tail before rewriting in place. Widening happens while
	// a table's schema is still settling — early, when little has spilled.
	if err := t.unspill(); err != nil {
		return err
	}
	d := &t.data[ci]
	switch {
	case from == TInt && to == TFloat:
		d.Floats = make([]float64, len(d.Ints))
		for i, v := range d.Ints {
			d.Floats[i] = float64(v)
		}
		d.Ints = nil
	case to == TString:
		d.Strs = make([]string, 0, t.rows)
		switch from {
		case TInt:
			for _, v := range d.Ints {
				d.Strs = append(d.Strs, strconv.FormatInt(v, 10))
			}
			d.Ints = nil
		case TFloat:
			for _, v := range d.Floats {
				d.Strs = append(d.Strs, strconv.FormatFloat(v, 'g', -1, 64))
			}
			d.Floats = nil
		case TTime:
			for _, v := range d.Times {
				d.Strs = append(d.Strs, time.UnixMicro(v).UTC().Format(mxml.TimeLayout))
			}
			d.Times = nil
		}
	default:
		return fmt.Errorf("mscopedb: %s.%s: cannot widen %v to %v", t.name, col, from, to)
	}
	t.cols[ci].Type = to
	t.dropIndex(ci)
	return nil
}

// AddColumn appends a new column, backfilling existing rows with the
// column's zero value. The streaming ingest uses it when a later record
// introduces a field the first records lacked (an optional derived field).
func (t *Table) AddColumn(c Column) error {
	if c.Name == "" {
		return fmt.Errorf("mscopedb: %s: column with empty name", t.name)
	}
	if c.Type < TInt || c.Type > TString {
		return fmt.Errorf("mscopedb: %s: column %q has invalid type", t.name, c.Name)
	}
	if _, dup := t.colIdx[c.Name]; dup {
		return fmt.Errorf("mscopedb: %s: duplicate column %q", t.name, c.Name)
	}
	// Same reasoning as Widen: segments pin the schema they were encoded
	// under, so widen the physical layout in memory.
	if err := t.unspill(); err != nil {
		return err
	}
	var d colData
	switch c.Type {
	case TInt:
		d.Ints = make([]int64, t.rows)
	case TFloat:
		d.Floats = make([]float64, t.rows)
	case TTime:
		d.Times = make([]int64, t.rows)
	case TString:
		d.Strs = make([]string, t.rows)
	}
	t.colIdx[c.Name] = len(t.cols)
	t.cols = append(t.cols, c)
	t.data = append(t.data, d)
	return nil
}

// Int returns an int cell.
func (t *Table) Int(col, row int) int64 {
	if t.seal != nil {
		return t.seal.intAt(t, col, row)
	}
	return t.data[col].Ints[row]
}

// Float returns a float cell.
func (t *Table) Float(col, row int) float64 {
	if t.seal != nil {
		return t.seal.floatAt(t, col, row)
	}
	return t.data[col].Floats[row]
}

// TimeMicros returns a time cell as a microsecond epoch.
func (t *Table) TimeMicros(col, row int) int64 {
	if t.seal != nil {
		return t.seal.timeAt(t, col, row)
	}
	return t.data[col].Times[row]
}

// Str returns a string cell.
func (t *Table) Str(col, row int) string {
	if t.seal != nil {
		return t.seal.strAt(t, col, row)
	}
	return t.data[col].Strs[row]
}

// Value returns a cell as any (int64, float64, time.Time or string).
func (t *Table) Value(col, row int) any {
	switch t.cols[col].Type {
	case TInt:
		return t.Int(col, row)
	case TFloat:
		return t.Float(col, row)
	case TTime:
		return time.UnixMicro(t.TimeMicros(col, row)).UTC()
	case TString:
		return t.Str(col, row)
	default:
		panic(fmt.Sprintf("mscopedb: invalid column type %v", t.cols[col].Type))
	}
}

// SizeBytes estimates the table's in-memory data footprint: 8 bytes per
// numeric/time cell, string header plus content per string cell. The
// schema-typing ablation compares typed against all-string schemas with it.
// On a spill-backed table this counts only the in-memory tail — that is
// the footprint, the sealed rows live on disk.
func (t *Table) SizeBytes() int64 {
	var total int64
	for i := range t.data {
		cd := &t.data[i]
		total += int64(len(cd.Ints)+len(cd.Floats)+len(cd.Times)) * 8
		for _, s := range cd.Strs {
			total += int64(len(s)) + 16
		}
	}
	return total
}

// numeric returns a cell coerced to float64 for predicates and
// aggregation; times coerce to their microsecond epoch.
func (t *Table) numeric(col, row int) (float64, bool) {
	switch t.cols[col].Type {
	case TInt:
		return float64(t.Int(col, row)), true
	case TFloat:
		return t.Float(col, row), true
	case TTime:
		return float64(t.TimeMicros(col, row)), true
	default:
		return 0, false
	}
}
