// Package stream turns the batch milliScope pipeline incremental: a
// rotation-aware tailer follows growing monitor logs, feeds the existing
// mScopeParsers through pipes so multi-line resynchronization and the
// quarantine policy work unchanged, appends rows to mScopeDB tables as
// records arrive, and an online detector classifies millibottlenecks from
// sliding windows gated by a low watermark — the "performance debugging
// while the experiment still runs" mode the paper's offline workflow
// (Sections III and V) implies but never builds.
//
// Every channel in the pipeline is bounded; when the loader falls behind,
// backpressure propagates through the parser pipes all the way to the
// tailer, which simply reads the files later. Nothing is dropped and
// nothing buffers without bound.
package stream

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"slices"
	"sync/atomic"
)

// maxReadBytes caps the bytes one read takes from the file: Poll reads a
// large backlog (a static file, a writer far ahead) in steps of this size
// through one bounded buffer, emitting after each step, instead of into
// one allocation the size of the backlog.
const maxReadBytes = 256 << 10

// Tailer follows one log file by byte offset, emitting only complete
// lines: a trailing partial line stays buffered until its newline arrives
// (or Flush forces it out at shutdown). A file whose size shrinks below
// the read offset was rotated or truncated; the tailer restarts from byte
// zero, drops the stale partial buffer, and counts the rotation.
type Tailer struct {
	path    string
	readOff int64 // bytes consumed from the file, including the partial tail
	// buf holds the buffered partial line (never a newline); its spare
	// capacity is the read space the next Poll fills, right after it.
	buf []byte

	committed atomic.Int64 // bytes emitted downstream (complete lines only)
	rotations atomic.Int64
}

// NewTailer tails path starting at offset — zero for a fresh file, or a
// checkpointed offset from the ingest ledger to resume without re-reading
// history.
func NewTailer(path string, offset int64) *Tailer {
	t := &Tailer{path: path, readOff: offset}
	t.committed.Store(offset)
	return t
}

// Path returns the tailed file path.
func (t *Tailer) Path() string { return t.path }

// Committed returns the byte offset of everything emitted downstream; safe
// to read concurrently with Poll.
func (t *Tailer) Committed() int64 { return t.committed.Load() }

// Rotations counts rotation/truncation resets observed; safe to read
// concurrently with Poll.
func (t *Tailer) Rotations() int64 { return t.rotations.Load() }

// Poll reads what the file has appended since the last call, up to the
// size it had when Poll began, and hands the complete-line prefix to emit
// — once per read of at most maxReadBytes. It returns the number of new
// bytes consumed (zero when the file is missing or unchanged). A missing
// file is not an error — the monitor may not have created it yet.
//
// The slice passed to emit is the tailer's own read buffer and is reused
// by the next read: emit must finish with the bytes before it returns.
// Both live sinks satisfy this — they write into an io.Pipe, whose Write
// returns only once the parser has copied every byte out.
func (t *Tailer) Poll(emit func([]byte) error) (int, error) {
	fi, err := os.Stat(t.path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	size := fi.Size()
	if size < t.readOff {
		// Rotation or truncation: the writer restarted the file. Bytes we
		// had not read are gone, and the buffered partial line belonged to
		// the old incarnation — parsing it against fresh content would
		// fabricate a record, so it is dropped, not emitted.
		t.readOff = 0
		t.buf = t.buf[:0]
		t.committed.Store(0)
		t.rotations.Add(1)
	} else if size == t.readOff {
		return 0, nil
	}
	f, err := os.Open(t.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	total := 0
	for t.readOff < size {
		want := min(size-t.readOff, maxReadBytes)
		held := len(t.buf)
		t.buf = slices.Grow(t.buf, int(want))
		// A file truncated between the Stat and the read yields a short
		// read; the next Poll sees the smaller size and resets.
		n, err := f.ReadAt(t.buf[held:held+int(want)], t.readOff)
		if err != nil && err != io.EOF {
			return total, err
		}
		if n == 0 {
			break
		}
		t.readOff += int64(n)
		total += n
		data := t.buf[:held+n]
		cut := bytes.LastIndexByte(data[held:], '\n')
		if cut < 0 {
			t.buf = data
			continue
		}
		cut += held
		if err := emit(data[:cut+1]); err != nil {
			return total, err
		}
		t.buf = data[:copy(data, data[cut+1:])]
		t.committed.Store(t.readOff - int64(len(t.buf)))
	}
	return total, nil
}

// Flush emits the buffered partial line, newline-terminated, at shutdown:
// a monitor killed mid-write leaves its last record without a newline, and
// the final flush is the only chance to parse it. The read buffer is
// dropped either way — a flushed source is drained, and holding its
// buffer would only pin heap.
func (t *Tailer) Flush(emit func([]byte) error) error {
	line := t.buf
	t.buf = nil
	if len(line) == 0 {
		return nil
	}
	if err := emit(append(line, '\n')); err != nil {
		return err
	}
	t.committed.Store(t.readOff)
	return nil
}
