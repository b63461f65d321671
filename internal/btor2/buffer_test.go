package btor2

import (
	"bytes"
	"strings"
	"testing"

	"emmver/internal/exp"
)

// A comment line far longer than the scanner's initial buffer still
// parses: the buffer grows on demand up to the 16 MiB line limit.
func TestReadLongCommentLine(t *testing.T) {
	src := "; " + strings.Repeat("x", 200<<10) + "\n" + `1 sort bitvec 1
2 state 1 b
3 zero 1
4 init 1 2 3
5 next 1 2 3
6 bad 2
`
	n, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Latches) != 1 || len(n.Props) != 1 {
		t.Fatalf("got %d latches and %d properties, want 1 and 1", len(n.Latches), len(n.Props))
	}
}

// Parsing a small design allocates in proportion to the design, not a
// fixed 1 MiB line buffer per call.
func TestReadSmallDesignAllocation(t *testing.T) {
	cfg := exp.DefaultGrowthSolve()
	cfg.AW, cfg.DW, cfg.Decoys = 4, 8, 1
	var buf bytes.Buffer
	if err := Write(&buf, exp.GrowthSolveNetlist(cfg)); err != nil {
		t.Fatal(err)
	}
	src := buf.Bytes()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Read(bytes.NewReader(src)); err != nil {
				b.Fatal(err)
			}
		}
	})
	const limit = 256 << 10
	got := res.AllocedBytesPerOp()
	t.Logf("%d-byte design: %d bytes allocated per parse", len(src), got)
	if got >= limit {
		t.Fatalf("parsing a %d-byte design allocates %d bytes per call, want under %d", len(src), got, limit)
	}
}
