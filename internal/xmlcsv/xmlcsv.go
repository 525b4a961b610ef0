// Package xmlcsv implements the mScope XMLtoCSV Converter (paper Section
// III-B3): the final transformation stage that turns annotated XML into
// load-ready CSV plus an inferred schema.
//
// Schema inference is bottom-up, exactly as the paper describes: the
// column set is the union of all field names across entries, and each
// column's type is the narrowest type that can store every observed value
// (int → float → string, with time as a parallel arm forced by parser
// hints). The downstream mScope Data Importer consumes the CSV/schema pair
// to create and populate warehouse tables.
package xmlcsv

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
)

// Converted describes one conversion's outputs.
type Converted struct {
	Table      string
	Source     string
	Host       string
	CSVPath    string
	SchemaPath string
	Rows       int
	Columns    []mscopedb.Column
}

// Schema is the JSON sidecar the importer reads.
type Schema struct {
	Table   string         `json:"table"`
	Source  string         `json:"source"`
	Host    string         `json:"host"`
	Columns []SchemaColumn `json:"columns"`
}

// SchemaColumn is one column of the sidecar.
type SchemaColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// inferState tracks one column's narrowest-type lattice position.
type inferState int

const (
	stUnknown inferState = iota
	stInt
	stFloat
	stTime
	stString
)

// merge widens the column state to accommodate a value state.
func merge(cur, v inferState) inferState {
	if cur == stUnknown {
		return v
	}
	if v == stUnknown || cur == v {
		return cur
	}
	// int ⊂ float; anything mixed with time (or string) degrades to string.
	if (cur == stInt && v == stFloat) || (cur == stFloat && v == stInt) {
		return stFloat
	}
	return stString
}

// classify returns a single value's narrowest type.
func classify(value, hint string) inferState {
	if value == "" {
		return stUnknown
	}
	if hint == "time" {
		if _, err := time.Parse(mxml.TimeLayout, value); err == nil {
			return stTime
		}
		return stString
	}
	if _, err := strconv.ParseInt(value, 10, 64); err == nil {
		return stInt
	}
	if _, err := strconv.ParseFloat(value, 64); err == nil {
		return stFloat
	}
	if _, err := time.Parse(mxml.TimeLayout, value); err == nil {
		return stTime
	}
	return stString
}

// widen returns merge(cur, classify(value, hint)): the column state after
// also storing value. A settled column is checked with the one parse its
// type implies — success proves the merge is a no-op — so the common case
// never allocates and never runs classify's failing guesses (whose error
// values allocate). Only a value that does not fit falls back to the full
// classification.
func widen(cur inferState, value, hint string) inferState {
	if value == "" || cur == stString {
		return cur
	}
	switch cur {
	case stInt:
		if hint != "time" {
			if _, err := strconv.ParseInt(value, 10, 64); err == nil {
				return stInt
			}
		}
	case stFloat:
		// classify yields int or float for anything ParseFloat accepts,
		// and float absorbs both.
		if hint != "time" {
			if _, err := strconv.ParseFloat(value, 64); err == nil {
				return stFloat
			}
		}
	case stTime:
		// No TimeLayout value also parses as a number, so classify yields
		// time for it with or without the hint.
		if _, err := time.Parse(mxml.TimeLayout, value); err == nil {
			return stTime
		}
	}
	return merge(cur, classify(value, hint))
}

// stateOf maps a column type back onto the inference lattice.
func stateOf(t mscopedb.Type) inferState {
	switch t {
	case mscopedb.TInt:
		return stInt
	case mscopedb.TFloat:
		return stFloat
	case mscopedb.TTime:
		return stTime
	default:
		return stString
	}
}

func toDBType(s inferState) mscopedb.Type {
	switch s {
	case stInt:
		return mscopedb.TInt
	case stFloat:
		return mscopedb.TFloat
	case stTime:
		return mscopedb.TTime
	default:
		// Columns with no non-empty values load as strings.
		return mscopedb.TString
	}
}

// ConvertFile converts one mxml document into <table>.csv and
// <table>.schema.json in outDir. The document is read twice: pass one
// infers the schema bottom-up, pass two emits rows in schema order.
func ConvertFile(mxmlPath, outDir string) (Converted, error) {
	var out Converted
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return out, fmt.Errorf("xmlcsv: create out dir: %w", err)
	}

	// Pass 1: union of columns (first-appearance order) + type inference.
	inf := NewInference()
	meta, err := scanDoc(mxmlPath, func(e mxml.Entry) error {
		inf.Observe(e)
		return nil
	})
	if err != nil {
		return out, err
	}
	cols := inf.Columns()
	if cols == nil {
		return out, fmt.Errorf("xmlcsv: %s: document has no fields", mxmlPath)
	}

	out.Table = meta.Table
	out.Source = meta.Source
	out.Host = meta.Host
	out.Columns = cols
	out.CSVPath = filepath.Join(outDir, meta.Table+".csv")
	out.SchemaPath = filepath.Join(outDir, meta.Table+".schema.json")

	// Write schema sidecar.
	schema := Schema{Table: meta.Table, Source: meta.Source, Host: meta.Host}
	for _, c := range cols {
		schema.Columns = append(schema.Columns, SchemaColumn{Name: c.Name, Type: c.Type.String()})
	}
	sf, err := os.Create(out.SchemaPath)
	if err != nil {
		return out, fmt.Errorf("xmlcsv: create schema: %w", err)
	}
	enc := json.NewEncoder(sf)
	enc.SetIndent("", " ")
	if err := enc.Encode(schema); err != nil {
		sf.Close()
		return out, fmt.Errorf("xmlcsv: write schema: %w", err)
	}
	if err := sf.Close(); err != nil {
		return out, fmt.Errorf("xmlcsv: close schema: %w", err)
	}

	// Pass 2: emit CSV rows in schema order.
	cf, err := os.Create(out.CSVPath)
	if err != nil {
		return out, fmt.Errorf("xmlcsv: create csv: %w", err)
	}
	defer cf.Close()
	bw := bufio.NewWriterSize(cf, 1<<16)
	w := csv.NewWriter(bw)
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.Name
	}
	if err := w.Write(header); err != nil {
		return out, fmt.Errorf("xmlcsv: write header: %w", err)
	}
	colPos := make(map[string]int, len(cols))
	for i, c := range cols {
		colPos[c.Name] = i
	}
	row := make([]string, len(cols))
	_, err = scanDoc(mxmlPath, func(e mxml.Entry) error {
		for i := range row {
			row[i] = ""
		}
		for _, f := range e.Fields {
			row[colPos[f.Name]] = f.Value
		}
		out.Rows++
		return w.Write(row)
	})
	if err != nil {
		return out, err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return out, fmt.Errorf("xmlcsv: flush csv: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return out, fmt.Errorf("xmlcsv: flush: %w", err)
	}
	return out, nil
}

// scanDoc opens and streams one mxml file.
func scanDoc(path string, onEntry func(mxml.Entry) error) (mxml.Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return mxml.Meta{}, fmt.Errorf("xmlcsv: open %s: %w", path, err)
	}
	defer f.Close()
	meta, err := mxml.ReadDoc(f, onEntry)
	if err != nil {
		return meta, fmt.Errorf("xmlcsv: read %s: %w", path, err)
	}
	return meta, nil
}

// ReadSchema loads a schema sidecar.
func ReadSchema(path string) (Schema, []mscopedb.Column, error) {
	var s Schema
	data, err := os.ReadFile(path)
	if err != nil {
		return s, nil, fmt.Errorf("xmlcsv: read schema %s: %w", path, err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, nil, fmt.Errorf("xmlcsv: parse schema %s: %w", path, err)
	}
	if s.Table == "" || len(s.Columns) == 0 {
		return s, nil, fmt.Errorf("xmlcsv: schema %s: missing table or columns", path)
	}
	cols := make([]mscopedb.Column, len(s.Columns))
	for i, c := range s.Columns {
		typ, err := mscopedb.ParseType(c.Type)
		if err != nil {
			return s, nil, fmt.Errorf("xmlcsv: schema %s column %s: %w", path, c.Name, err)
		}
		cols[i] = mscopedb.Column{Name: c.Name, Type: typ}
	}
	return s, cols, nil
}

// SchemaPathFor returns the sidecar path convention for a CSV path.
func SchemaPathFor(csvPath string) string {
	return strings.TrimSuffix(csvPath, ".csv") + ".schema.json"
}

// Inference is the bottom-up schema-inference state exposed for
// incremental use: the batch direct path observes entries as the parser
// emits them, and the streaming ingest (internal/stream) infers a new
// table's schema from its first record. ConvertFile runs the same state
// over a finished mxml document.
type Inference struct {
	order  []string
	states []inferState
	pos    map[string]int
}

// NewInference returns an empty inference.
func NewInference() *Inference {
	return &Inference{pos: make(map[string]int)}
}

// Observe folds one entry's fields into the inference.
func (inf *Inference) Observe(e mxml.Entry) {
	for _, f := range e.Fields {
		i, seen := inf.pos[f.Name]
		if !seen {
			i = len(inf.order)
			inf.pos[f.Name] = i
			inf.order = append(inf.order, f.Name)
			inf.states = append(inf.states, stUnknown)
		}
		inf.states[i] = widen(inf.states[i], f.Value, f.Hint)
	}
}

// Columns returns the inferred schema in first-appearance order; nil when
// no fields were observed.
func (inf *Inference) Columns() []mscopedb.Column {
	if len(inf.order) == 0 {
		return nil
	}
	cols := make([]mscopedb.Column, len(inf.order))
	for i, name := range inf.order {
		cols[i] = mscopedb.Column{Name: name, Type: toDBType(inf.states[i])}
	}
	return cols
}

// WidenFor returns the column type needed to also store the given value:
// the merge of the current type with the value's classification. Equal to
// cur when the value already fits — the streaming ingest widens the live
// table only when this differs. It runs the same step as Observe, so a
// value that fits its column costs one parse and no allocation.
func WidenFor(cur mscopedb.Type, value, hint string) mscopedb.Type {
	return toDBType(widen(stateOf(cur), value, hint))
}
