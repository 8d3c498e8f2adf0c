package durable

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// FuzzScanJSONL holds the scanner to its contract on arbitrary input: it
// never panics, every line number it hands out is that line's 1-based index
// in the input, handed data never contains a newline, and truncated is
// reported exactly when the input lacks a final newline and that last
// fragment failed to decode. The blank-line seeds check that blank lines
// count toward the line number, so an error built from it places the
// corrupt record in "{}\n\n\nnot json\n" on line 4.
func FuzzScanJSONL(f *testing.F) {
	for _, seed := range []string{
		"",
		"{}\n",
		"{\"i\":0}\r\n{\"i\":1}\r\n",
		"{}\n\n\nnot json\n",
		"\n\n{}\n\n",
		"{\"i\":0}\n{\"i\":1,\"name\":\"tru",
		"{\"i\":0}\n{\"i\":1}",
		"{\"i\":0}\n{\"i\":1,garbage\n{\"i\":2}\n",
		"\r\n\r",
	} {
		f.Add(seed)
	}
	errCorrupt := errors.New("corrupt")
	f.Fuzz(func(t *testing.T, input string) {
		lines := strings.Split(input, "\n")
		last := -1
		truncated, err := ScanJSONL(strings.NewReader(input), func(line int, data []byte) error {
			if strings.ContainsRune(string(data), '\n') {
				t.Fatalf("line %d: handed data %q contains a newline", line, data)
			}
			if line <= last || line < 1 || line > len(lines) {
				t.Fatalf("line %d handed out after line %d of %d", line, last, len(lines))
			}
			last = line
			if want := strings.TrimSuffix(lines[line-1], "\r"); string(data) != want {
				t.Fatalf("line %d: handed %q, input has %q", line, data, want)
			}
			if !json.Valid(data) {
				return errCorrupt
			}
			return nil
		})
		if err != nil && !errors.Is(err, errCorrupt) {
			t.Fatalf("unexpected error: %v", err)
		}
		tail := strings.TrimSuffix(lines[len(lines)-1], "\r")
		tailFailed := tail != "" && !json.Valid([]byte(tail))
		if want := err == nil && tailFailed; truncated != want {
			t.Fatalf("truncated = %v, want %v (err %v, unterminated tail %q)", truncated, want, err, tail)
		}
	})
}
