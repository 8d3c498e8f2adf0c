package acasx

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

var (
	serBenchOnce  sync.Once
	serBenchTable *Table
	serBenchErr   error
)

func benchSerializeTable(b *testing.B) *Table {
	b.Helper()
	serBenchOnce.Do(func() {
		cfg := CoarseConfig()
		cfg.Workers = 4
		serBenchTable, serBenchErr = BuildTable(cfg)
	})
	if serBenchErr != nil {
		b.Fatal(serBenchErr)
	}
	return serBenchTable
}

// BenchmarkTableWriteTo measures table serialization throughput (the save
// half of the Save/Load round trip). The Q payload is bulk-encoded one
// slice at a time; MB/s is the figure to watch across runs.
func BenchmarkTableWriteTo(b *testing.B) {
	table := benchSerializeTable(b)
	n, err := table.WriteTo(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableReadTable measures deserialization throughput (the load
// half), including CRC verification and structural validation.
func BenchmarkTableReadTable(b *testing.B) {
	table := benchSerializeTable(b)
	var buf bytes.Buffer
	if _, err := table.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadTable(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
