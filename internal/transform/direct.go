package transform

// direct.go is the default ingest path since the direct-path rework: the
// parser's entries flow straight into schema inference and a columnar
// table build, fusing the staged pipeline's annotated-XML write, XML
// re-read, CSV write and CSV re-read into one in-memory pass. The staged
// artifacts remain available behind Options.Materialize, and the
// differential conformance suite proves both paths produce byte-identical
// warehouses.
//
// Byte identity is not free: the staged path round-trips every field name
// and value through xml.EscapeText → xml.Decoder and then through
// encoding/csv. Those round trips are not the identity function on
// arbitrary bytes (invalid UTF-8 and XML-illegal runes become U+FFFD;
// CR LF inside a quoted CSV cell collapses to LF), so the direct path
// applies the same normalizations in memory — normalizeXML and
// csvRoundTrip below — instead of paying two encode/decode cycles per
// record to get them for free.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"unicode/utf8"

	"github.com/gt-elba/milliscope/internal/mscopedb"
	"github.com/gt-elba/milliscope/internal/mxml"
	"github.com/gt-elba/milliscope/internal/parsers"
	"github.com/gt-elba/milliscope/internal/xmlcsv"
)

// xmlCharOK mirrors encoding/xml's isInCharacterRange: the runes XML 1.0
// permits in a document.
func xmlCharOK(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		(r >= 0x20 && r <= 0xD7FF) ||
		(r >= 0xE000 && r <= 0xFFFD) ||
		(r >= 0x10000 && r <= 0x10FFFF)
}

// normalizeXML applies the annotated-XML write→read round trip to one
// string: xml.EscapeText replaces invalid UTF-8 bytes and XML-illegal
// runes with U+FFFD and escapes everything else reversibly (including
// \t \n \r, which therefore dodge the XML parser's line-end and
// attribute-value normalizations). Clean strings — the overwhelmingly
// common case — are returned unchanged without allocating.
func normalizeXML(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b >= 0x80 || (b < 0x20 && b != '\t' && b != '\n' && b != '\r') {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s))
	for i := 0; i < len(s); {
		r, width := utf8.DecodeRuneInString(s[i:])
		if (r == utf8.RuneError && width == 1) || !xmlCharOK(r) {
			sb.WriteRune(utf8.RuneError)
		} else {
			sb.WriteRune(r)
		}
		i += width
	}
	return sb.String()
}

// csvRoundTrip applies the converter-CSV write→read round trip: a cell
// containing CR LF is quoted on write, and encoding/csv's reader treats a
// carriage return followed by a newline inside a quoted cell as a single
// newline. Every other cell the writer produces reads back verbatim.
func csvRoundTrip(s string) string {
	if !strings.Contains(s, "\r\n") {
		return s
	}
	return strings.ReplaceAll(s, "\r\n", "\n")
}

// entrySet collects one file's parsed entries in a single field arena —
// the in-memory stand-in for the annotated-XML document — while folding
// each entry into the converter's bottom-up schema inference.
type entrySet struct {
	fields []mxml.Field
	// ends[i] is the arena offset one past entry i's last field.
	ends []int
	inf  *xmlcsv.Inference
	// emptyName records that some field had an empty name, which the
	// staged path rejects when re-reading the document.
	emptyName bool
}

func newEntrySet() *entrySet { return &entrySet{inf: xmlcsv.NewInference()} }

func (s *entrySet) len() int { return len(s.ends) }

// reserve pre-sizes the arena for entries records totalling fields
// fields. Callers that already hold the parsed records (the sharded
// path's stitch) know both counts exactly; reserving once replaces the
// append doubling chain — and its large-block clear+copy cost, the top
// CPU item in the parallel-ingest profile — with a single allocation.
func (s *entrySet) reserve(entries, fields int) {
	if cap(s.fields)-len(s.fields) < fields {
		grown := make([]mxml.Field, len(s.fields), len(s.fields)+fields)
		copy(grown, s.fields)
		s.fields = grown
	}
	if cap(s.ends)-len(s.ends) < entries {
		grown := make([]int, len(s.ends), len(s.ends)+entries)
		copy(grown, s.ends)
		s.ends = grown
	}
}

// add is the parser's Emit sink: copy the entry in, then recycle its
// field storage for the parser's next record.
func (s *entrySet) add(e mxml.Entry) error {
	s.copyIn(e)
	e.Release()
	return nil
}

// copyIn normalizes the entry's fields into the arena and observes them.
// The sharded stitch calls it directly and does not Release: it holds a
// whole file's entries, and releasing them at once would park a file's
// worth of field storage (tens of MB) in the pool, live until two GC
// cycles pass, with no parse left to reuse most of it.
func (s *entrySet) copyIn(e mxml.Entry) {
	start := len(s.fields)
	for _, f := range e.Fields {
		name := normalizeXML(f.Name)
		if name == "" {
			s.emptyName = true
		}
		s.fields = append(s.fields, mxml.Field{
			Name: name, Value: normalizeXML(f.Value), Hint: normalizeXML(f.Hint)})
	}
	s.ends = append(s.ends, len(s.fields))
	s.inf.Observe(mxml.Entry{Fields: s.fields[start:]})
}

// columns finalizes schema inference, reproducing the converter's failure
// modes (and exact errors) for degenerate documents. mxmlPath is the path
// the staged pipeline would have written — reported, never created.
func (s *entrySet) columns(mxmlPath string) ([]mscopedb.Column, error) {
	if s.emptyName {
		return nil, fmt.Errorf("xmlcsv: read %s: mxml: field without name", mxmlPath)
	}
	cols := s.inf.Columns()
	if cols == nil {
		return nil, fmt.Errorf("xmlcsv: %s: document has no fields", mxmlPath)
	}
	return cols, nil
}

// buildTable materializes the collected entries as a columnar table:
// preallocated to the known row count, cells rendered in schema order
// with the converter's last-value-wins rule for duplicate field names.
// csvPath is the path the staged pipeline would have written — used only
// in error messages and ledger rows.
func (s *entrySet) buildTable(table string, cols []mscopedb.Column, csvPath string) (*mscopedb.Table, error) {
	tbl, err := mscopedb.NewTable(table, cols)
	if err != nil {
		return nil, fmt.Errorf("importer: create table: %w", err)
	}
	tbl.Grow(len(s.ends))
	pos := make(map[string]int, len(cols))
	for i, c := range cols {
		pos[c.Name] = i
	}
	row := make([]string, len(cols))
	start := 0
	for _, end := range s.ends {
		for i := range row {
			row[i] = ""
		}
		for _, f := range s.fields[start:end] {
			row[pos[f.Name]] = csvRoundTrip(f.Value)
		}
		start = end
		if err := tbl.AppendStrings(row); err != nil {
			return nil, fmt.Errorf("importer: load %s row %d: %w", csvPath, tbl.Rows()+1, err)
		}
	}
	return tbl, nil
}

// directParse runs stage 2 for the direct path: parse one file into an
// entrySet under the active policy. It mirrors TransformFile /
// transformFileDegraded — same side effects (quarantine sinks), same
// policy decisions, same error strings — minus the annotated-XML file.
func directParse(path string, b Binding, workDir string, opts Options, set *entrySet) (FileResult, error) {
	var out FileResult
	p, err := parsers.Get(b.Parser)
	if err != nil {
		return out, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return out, fmt.Errorf("transform: create work dir: %w", err)
	}
	table := hostOf(path, b) + "_" + b.TableSuffix

	if opts.Policy != Quarantine {
		return directParseStrict(path, p, b, table, set)
	}
	dp, degradable := p.(parsers.DegradedParser)
	if !degradable {
		// Customized parsers without a degraded mode keep strict semantics;
		// under Quarantine their failure costs the file, not the ingest.
		fr, err := directParseStrict(path, p, b, table, set)
		if err != nil {
			return out, fmt.Errorf("transform: %s: %w: parser %q has no degraded mode: %v",
				path, ErrFileRejected, b.Parser, err)
		}
		return fr, nil
	}

	in, err := os.Open(path)
	if err != nil {
		return out, fmt.Errorf("transform: open %s: %w", path, err)
	}
	defer in.Close()
	sink := &quarantineSink{dir: opts.quarantineDir(workDir), base: filepath.Base(path)}
	parseErr := dp.ParseDegraded(in, b.Instructions, set.add, sink.record)
	if cerr := sink.close(); cerr != nil && parseErr == nil {
		parseErr = cerr
	}
	if parseErr != nil {
		return out, fmt.Errorf("transform: %s: %w", path, parseErr)
	}
	out = FileResult{Input: path, Parser: b.Parser, Table: table, Entries: set.len(),
		Quarantined: sink.count(), QuarantinePath: sink.path()}
	if err := opts.checkBudget(out, path); err != nil {
		return out, err
	}
	return out, nil
}

// directParseStrict is the fail-fast half of directParse.
func directParseStrict(path string, p parsers.Parser, b Binding, table string, set *entrySet) (FileResult, error) {
	var out FileResult
	in, err := os.Open(path)
	if err != nil {
		return out, fmt.Errorf("transform: open %s: %w", path, err)
	}
	defer in.Close()
	if err := p.Parse(in, b.Instructions, set.add); err != nil {
		return out, fmt.Errorf("transform: %s: %w", path, err)
	}
	return FileResult{Input: path, Parser: b.Parser, Table: table, Entries: set.len()}, nil
}
