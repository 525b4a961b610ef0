package stream

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tailStep is one scripted mutation of the tailed file followed by a poll.
type tailStep struct {
	// write appends bytes; truncate resets the file to zero first;
	// remove deletes the file; create recreates it empty.
	write    string
	truncate bool
	remove   bool
	// want is the concatenation of complete-line chunks this poll must
	// emit.
	want string
}

func TestTailerEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		steps []tailStep
		// flush is the expected final-flush emission.
		flush         string
		wantRotations int64
	}{
		{
			name: "complete lines pass through",
			steps: []tailStep{
				{write: "a 1\nb 2\n", want: "a 1\nb 2\n"},
				{write: "c 3\n", want: "c 3\n"},
			},
		},
		{
			name: "partial line buffered until its newline arrives",
			steps: []tailStep{
				{write: "a 1\nb ", want: "a 1\n"},
				{write: "", want: ""},
				{write: "2\nc 3\n", want: "b 2\nc 3\n"},
			},
		},
		{
			name: "final flush of partial last line",
			steps: []tailStep{
				{write: "a 1\nb 2", want: "a 1\n"},
			},
			flush: "b 2\n",
		},
		{
			name: "rotation mid-record drops the stale partial",
			steps: []tailStep{
				{write: "a 1\nb 2 is going to be cut ", want: "a 1\n"},
				// The writer rotates: the unread half of record b belongs
				// to the old incarnation and must not prefix record c.
				{truncate: true, write: "c 3\nd 4\n", want: "c 3\nd 4\n"},
			},
			wantRotations: 1,
		},
		{
			name: "truncation to zero restarts from byte zero",
			steps: []tailStep{
				{write: "a 1\nb 2\n", want: "a 1\nb 2\n"},
				{truncate: true, want: ""},
				{write: "e 5\n", want: "e 5\n"},
			},
			wantRotations: 1,
		},
		{
			name: "file appears only after tailing started",
			steps: []tailStep{
				{remove: true, want: ""},
				{remove: true, want: ""},
				{write: "late 1\n", want: "late 1\n"},
			},
		},
		{
			name: "partial line carried over several polls",
			steps: []tailStep{
				{write: "a 1\nlong ", want: "a 1\n"},
				{write: "record ", want: ""},
				{write: "still ", want: ""},
				{write: "going\nb 2", want: "long record still going\n"},
			},
			flush: "b 2\n",
		},
		{
			name: "rotation drops a partial buffered over several polls",
			steps: []tailStep{
				{write: "a 1\nstale ", want: "a 1\n"},
				{write: "partial record", want: ""},
				{truncate: true, write: "c 3\n", want: "c 3\n"},
			},
			wantRotations: 1,
		},
		{
			name: "shrunk rewrite re-reads the new incarnation",
			steps: []tailStep{
				{write: "first incarnation with plenty of bytes\n", want: "first incarnation with plenty of bytes\n"},
				{truncate: true, write: "second\n", want: "second\n"},
			},
			wantRotations: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "mon.log")
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			tail := NewTailer(path, 0)
			var got strings.Builder
			emit := func(b []byte) error { got.Write(b); return nil }
			for i, step := range tc.steps {
				if step.remove {
					_ = os.Remove(path)
				}
				if step.truncate {
					if err := os.Truncate(path, 0); err != nil {
						t.Fatal(err)
					}
				}
				if step.write != "" || !step.remove && !step.truncate {
					f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := f.WriteString(step.write); err != nil {
						t.Fatal(err)
					}
					f.Close()
				}
				got.Reset()
				if _, err := tail.Poll(emit); err != nil {
					t.Fatalf("step %d: poll: %v", i, err)
				}
				if got.String() != step.want {
					t.Fatalf("step %d: emitted %q, want %q", i, got.String(), step.want)
				}
			}
			got.Reset()
			if err := tail.Flush(emit); err != nil {
				t.Fatalf("flush: %v", err)
			}
			if got.String() != tc.flush {
				t.Fatalf("flush emitted %q, want %q", got.String(), tc.flush)
			}
			if r := tail.Rotations(); r != tc.wantRotations {
				t.Fatalf("rotations = %d, want %d", r, tc.wantRotations)
			}
		})
	}

	t.Run("growth beyond the read cap is emitted in capped steps", func(t *testing.T) {
		// Lines of varying length so no read boundary lands on a newline
		// by construction.
		var content strings.Builder
		for i := 0; content.Len() < 5*maxReadBytes/2; i++ {
			fmt.Fprintf(&content, "rec %d %s\n", i, strings.Repeat("x", i%97))
		}
		path := filepath.Join(t.TempDir(), "mon.log")
		if err := os.WriteFile(path, []byte(content.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		tail := NewTailer(path, 0)
		var got strings.Builder
		emits := 0
		n, err := tail.Poll(func(b []byte) error {
			emits++
			// Committed trails the bytes handed over so far and never
			// stops inside a line.
			if c := tail.Committed(); c != int64(got.Len()) || c > 0 && content.String()[c-1] != '\n' {
				t.Fatalf("emit %d: committed %d, %d bytes emitted before", emits, c, got.Len())
			}
			if len(b) > 2*maxReadBytes || cap(tail.buf) > 2*maxReadBytes {
				t.Fatalf("emit %d: %d bytes through a %d-byte buffer, cap is %d",
					emits, len(b), cap(tail.buf), maxReadBytes)
			}
			got.Write(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// One Poll catches up with everything on disk when it began.
		if n != content.Len() || tail.Committed() != int64(content.Len()) {
			t.Fatalf("poll read %d bytes, committed %d, file holds %d", n, tail.Committed(), content.Len())
		}
		if emits < 3 {
			t.Fatalf("emitted %d bytes in %d steps, want >= 3", content.Len(), emits)
		}
		if got.String() != content.String() {
			t.Fatalf("emitted content differs from the file (%d vs %d bytes)", got.Len(), content.Len())
		}
		if n, err := tail.Poll(func([]byte) error { return nil }); n != 0 || err != nil {
			t.Fatalf("poll of a drained file = %d, %v", n, err)
		}
	})

	t.Run("bytes appended during a poll wait for the next", func(t *testing.T) {
		// A drain keeps polling while bytes arrive, bounded by a pass
		// count; that bound holds only if one Poll ends at the size it
		// saw, however fast the writer appends behind it.
		path := filepath.Join(t.TempDir(), "mon.log")
		first := strings.Repeat("line\n", 3*maxReadBytes/5)
		if err := os.WriteFile(path, []byte(first), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		more := strings.Repeat("late\n", maxReadBytes/5)
		tail := NewTailer(path, 0)
		n, err := tail.Poll(func([]byte) error {
			_, err := f.WriteString(more)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(first) {
			t.Fatalf("poll read %d bytes, the file held %d when it began", n, len(first))
		}
	})

	t.Run("emit error leaves the commit point", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "mon.log")
		if err := os.WriteFile(path, []byte("a 1\nb "), 0o644); err != nil {
			t.Fatal(err)
		}
		tail := NewTailer(path, 0)
		if _, err := tail.Poll(func([]byte) error { return nil }); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString("2\nc 3\n"); err != nil {
			t.Fatal(err)
		}
		f.Close()
		boom := errors.New("sink closed")
		if _, err := tail.Poll(func([]byte) error { return boom }); !errors.Is(err, boom) {
			t.Fatalf("poll error = %v, want %v", err, boom)
		}
		if c := tail.Committed(); c != int64(len("a 1\n")) {
			t.Fatalf("committed = %d after a failed emit, want %d", c, len("a 1\n"))
		}
	})

	t.Run("flush releases the read buffer", func(t *testing.T) {
		for _, content := range []string{"a 1\nb 2\n", "a 1\nb 2"} {
			path := filepath.Join(t.TempDir(), "mon.log")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			tail := NewTailer(path, 0)
			if _, err := tail.Poll(func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if cap(tail.buf) == 0 {
				t.Fatalf("%q: no read buffer after a poll", content)
			}
			if err := tail.Flush(func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if tail.buf != nil {
				t.Fatalf("%q: flush kept a %d-byte buffer", content, cap(tail.buf))
			}
		}
	})
}

func TestTailerResumeOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mon.log")
	content := "old 1\nold 2\nnew 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	// Resume past the first two lines, as a ledger checkpoint would.
	tail := NewTailer(path, int64(len("old 1\nold 2\n")))
	var got strings.Builder
	if _, err := tail.Poll(func(b []byte) error { got.Write(b); return nil }); err != nil {
		t.Fatal(err)
	}
	if got.String() != "new 3\n" {
		t.Fatalf("resumed poll emitted %q, want %q", got.String(), "new 3\n")
	}
	if c := tail.Committed(); c != int64(len(content)) {
		t.Fatalf("committed = %d, want %d", c, len(content))
	}
}

func TestTailerCommittedExcludesPartial(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mon.log")
	if err := os.WriteFile(path, []byte("done\npart"), 0o644); err != nil {
		t.Fatal(err)
	}
	tail := NewTailer(path, 0)
	if _, err := tail.Poll(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c := tail.Committed(); c != int64(len("done\n")) {
		t.Fatalf("committed = %d, want %d (partial line must not be checkpointed)", c, len("done\n"))
	}
	if err := tail.Flush(func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if c := tail.Committed(); c != int64(len("done\npart")) {
		t.Fatalf("committed after flush = %d, want %d", c, len("done\npart"))
	}
}
