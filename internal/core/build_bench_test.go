package core_test

import (
	"testing"

	"github.com/sealdb/seal/internal/core"
	"github.com/sealdb/seal/internal/gen"
)

// BenchmarkHierarchicalBuild builds the SEAL hierarchical hybrid index at
// the default tree depth and budget over a small synthetic Twitter corpus.
// HSS-Greedy selection dominates its CPU time.
func BenchmarkHierarchicalBuild(b *testing.B) {
	ds, err := gen.Twitter(gen.TwitterConfig{N: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := core.NewHierarchicalFilter(ds, core.DefaultHierarchicalConfig); err != nil {
			b.Fatal(err)
		}
	}
}
