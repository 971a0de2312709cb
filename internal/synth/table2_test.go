package synth_test

import (
	"hash/fnv"
	"testing"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/synth"
)

// table2Pinned is the selection oracle for every Table 2 dataset at scale
// 0.1, seed 1, with the CLI's default synthesis options: the candidates
// the pruning gate rejected, the MEC size, and the FNV-1a hash of the
// selected program's surface syntax. A change to the static-analysis gate
// must leave every row unchanged.
var table2Pinned = map[int]table2Row{
	1:  {0, 8, 0x66655aba56dd2f48},
	2:  {0, 1, 0xcf68ddd30dc10644},
	3:  {0, 8, 0xa1f7fc73a606a956},
	4:  {0, 3, 0x185379d3bcc1613e},
	5:  {0, 2, 0xc2ce04da54d7e243},
	6:  {0, 2, 0x104820ac32b5c10c},
	7:  {0, 2, 0x94d2bd21f66a59eb},
	8:  {0, 1, 0x32f969d307bb9f0d},
	9:  {0, 1, 0xb1c26ac9ef896955},
	10: {0, 2, 0xe56f754fb8c7d7f2},
	11: {0, 24, 0x40497ddc8f67577c},
	12: {0, 4, 0xf24ade955c8d17d6},
}

type table2Row struct {
	pruned, dags int
	prog         uint64
}

// TestTable2SelectionPinned synthesizes all twelve Table 2 datasets and
// compares each selection with table2Pinned.
func TestTable2SelectionPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes all 12 Table 2 datasets")
	}
	for id := 1; id <= 12; id++ {
		spec, err := bn.SpecByID(id)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := spec.Generate(0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := synth.Synthesize(rel, synth.Options{Epsilon: 0.02, Seed: 1})
		if err != nil {
			t.Fatalf("dataset %d: %v", id, err)
		}
		h := fnv.New64a()
		_, _ = h.Write([]byte(dsl.Format(res.Program, rel)))
		got := table2Row{res.PrunedPrograms, res.NumDAGs, h.Sum64()}
		if want := table2Pinned[id]; got != want {
			t.Errorf("dataset %d: got {%d, %d, %#016x}, want {%d, %d, %#016x}",
				id, got.pruned, got.dags, got.prog, want.pruned, want.dags, want.prog)
		}
	}
}
