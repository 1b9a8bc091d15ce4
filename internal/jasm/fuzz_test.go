package jasm

import (
	"os"
	"path/filepath"
	"testing"
)

// afterTerminator once crashed Parse with an ir.Builder panic instead of
// returning an error.
const afterTerminator = "func main(n int) int {\nentry:\n    return 0\n    return 1\n}\n"

// FuzzJasm: Parse never panics, and whatever it accepts round-trips —
// formatting the parsed program and parsing that text again reproduces the
// same text. The corpus starts from the example programs and past crashers.
func FuzzJasm(f *testing.F) {
	paths, err := filepath.Glob("../../examples/jasm/*.jasm")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example programs to seed the corpus (%v)", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(afterTerminator)
	f.Fuzz(func(t *testing.T, src string) {
		prog, _, err := Parse(src)
		if err != nil {
			return
		}
		text := Format(prog)
		again, _, err := Parse(text)
		if err != nil {
			t.Fatalf("formatted program does not parse: %v\n%s", err, text)
		}
		if got := Format(again); got != text {
			t.Fatalf("round trip changed the program:\n%s\n--- reparsed ---\n%s", text, got)
		}
	})
}
