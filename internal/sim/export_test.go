package sim

import (
	"io"
	"sync/atomic"
	"testing"

	"phasetune/internal/prog"
)

// countEncodes counts the program encodings progHash makes until the test
// ends. Tests that call it must not run in parallel.
func countEncodes(t *testing.T) *atomic.Int64 {
	var n atomic.Int64
	orig := encodeProgram
	encodeProgram = func(w io.Writer, p *prog.Program) error {
		n.Add(1)
		return orig(w, p)
	}
	t.Cleanup(func() { encodeProgram = orig })
	return &n
}
