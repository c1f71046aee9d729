package discovery

import (
	"testing"

	"repro/internal/dataset"
)

// BenchmarkCover measures SeqCover over Σ mined from DBpediaSim(1000) at
// the harness setting (k=3, σ=80, |X| ≤ 1, wildcards, 30 patterns per
// level): about 1,400 GFDs, negatives included, sharing about 100
// patterns.
func BenchmarkCover(b *testing.B) {
	opts := Options{
		K: 3, Support: 80, ConstantsPerAttr: 5, MaxX: 1, WildcardNodes: true,
		MaxExtensionsPerPattern: 20, MaxPatternsPerLevel: 30, MaxLevels: 4,
		MaxNegatives: 300, MaxTableRows: 300000,
	}
	sigma := Mine(dataset.DBpediaSim(1000, 42), opts).All()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Cover(sigma)) == 0 {
			b.Fatal("empty cover")
		}
	}
}
