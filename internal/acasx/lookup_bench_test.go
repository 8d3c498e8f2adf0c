package acasx

import (
	"sync"
	"testing"
)

// The lookup benchmark runs the full-resolution table (38.8 MB of float64
// slices — larger than the last-level cache, so uncorrelated queries pay
// DRAM latency); the coarse test table fits in L2 and would hide that.
var (
	benchTableOnce  sync.Once
	benchTable      *Table
	benchTableError error
)

func fullBenchTable(tb testing.TB) *Table {
	tb.Helper()
	benchTableOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Workers = 8
		benchTable, benchTableError = BuildTable(cfg)
	})
	if benchTableError != nil {
		tb.Fatal(benchTableError)
	}
	return benchTable
}

// BenchmarkAllQValuesFast measures one shared-weight advisory-vector
// lookup (AllQValues) per op — the innermost unit of every decision
// cycle — over a domain-spanning random query stream (the worst case for
// locality; an episode's own trajectory corridor is far more correlated).
// CI gates on it reporting 0 allocs/op; the name matches the read-only
// BENCH_*.json history.
func BenchmarkAllQValuesFast(b *testing.B) {
	b.Run("exact", func(b *testing.B) {
		table := fullBenchTable(b)
		states := randomStates(table, 4096, 51)
		var qv [NumAdvisories]float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := states[i&4095]
			table.AllQValues(&qv, s.tau, s.h, s.dh0, s.dh1, Advisory(i%NumAdvisories))
		}
	})
}
