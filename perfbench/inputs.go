package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/guardrail-db/guardrail/internal/bn"
	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/errgen"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// sizes scales every workload. The benchmark runs fullSize; the tests
// run a tiny one.
type sizes struct {
	PostalCodes  int // cardinality of PostalCode in bn.PostalChain
	TrainRows    int // clean sample the guard program is synthesized from
	BodyRows     int // NDJSON rows per serve request
	Bodies       int // distinct request bodies, cycled by the clients
	MinOps       int // serve requests per run, at least (p99 needs 1000)
	CSVRows      int // rows of the cli-rectify input file
	SynthSets    int // dataset-3 samples a synth run cycles through
	SetupReps    int // set-ups per run; setup_s is their median
	FixedReqs    int // 1-row requests in the traced run
	ReplayBodies int // bodies the traced run replays and fetches raw
}

var fullSize = sizes{
	PostalCodes:  256,
	TrainRows:    6000,
	BodyRows:     1000,
	Bodies:       48,
	MinOps:       1000,
	CSVRows:      100000,
	SynthSets:    8,
	SetupReps:    15,
	FixedReqs:    300,
	ReplayBodies: 8,
}

const datasetName = "postal"

// postalProgram is the guard the serve and cli-rectify workloads enforce:
// synthesized from a clean bn.PostalChain sample, it has 3 statements with
// hundreds of branches, the dictionary-scale regime.
type postalProgram struct {
	schemaCSV []byte // the training sample as CSV: what serve -load reads
	text      string // the program in surface syntax: what -prog reads
}

func newPostalProgram(sz sizes, seed int64) (*postalProgram, error) {
	rel, err := bn.PostalChain(sz.PostalCodes).Sample(sz.TrainRows, seed)
	if err != nil {
		return nil, err
	}
	res, err := core.Synthesize(rel, core.Options{Seed: seed, Workers: nproc})
	if err != nil {
		return nil, fmt.Errorf("synthesize postal program: %w", err)
	}
	if len(res.Program.Stmts) == 0 {
		return nil, fmt.Errorf("synthesize postal program: empty program")
	}
	var csv bytes.Buffer
	if err := rel.ToCSV(&csv); err != nil {
		return nil, err
	}
	return &postalProgram{schemaCSV: csv.Bytes(), text: dsl.Format(res.Program, rel)}, nil
}

// dirtyPostal samples n postal rows and corrupts them with errgen at its
// defaults: 1% of rows, 30% of those with out-of-dictionary strings.
func dirtyPostal(sz sizes, n int, seed int64) (*dataset.Relation, error) {
	rel, err := bn.PostalChain(sz.PostalCodes).Sample(n, seed)
	if err != nil {
		return nil, err
	}
	if _, err := errgen.Inject(rel, errgen.Options{Seed: seed + 1}); err != nil {
		return nil, err
	}
	return rel, nil
}

// rowVerdict is the reference outcome of checking one row.
type rowVerdict struct {
	flagged    bool
	violations int
}

// summary is the final line of a streaming check response.
type summary struct {
	Rows       int `json:"rows"`
	Flagged    int `json:"flagged"`
	Violations int `json:"violations"`
	Changed    int `json:"changed"`
}

// serveInputs holds the request bodies and their reference outcomes.
type serveInputs struct {
	prog   *postalProgram
	bodies [][]byte       // NDJSON, BodyRows rows each
	want   []summary      // AST-engine reference summary per body
	perRow [][]rowVerdict // AST-engine reference per row of each body
}

func newServeInputs(sz sizes, seed int64) (*serveInputs, error) {
	prog, err := newPostalProgram(sz, seed)
	if err != nil {
		return nil, err
	}
	rel, err := dirtyPostal(sz, sz.Bodies*sz.BodyRows, seed+100)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{prog: prog}
	rows := make([][][]string, sz.Bodies) // rows[b] are body b's rows
	for b := range rows {
		var body bytes.Buffer
		for r := b * sz.BodyRows; r < (b+1)*sz.BodyRows; r++ {
			vals := rel.RowStrings(r)
			rows[b] = append(rows[b], vals)
			appendNDJSONRow(&body, rel.Attrs(), vals)
		}
		in.bodies = append(in.bodies, body.Bytes())
	}
	if err := in.reference(rows); err != nil {
		return nil, err
	}
	return in, nil
}

// appendNDJSONRow writes one row as a JSON object keyed by attribute name,
// the form a client posts to /v1/check.
func appendNDJSONRow(w *bytes.Buffer, attrs, vals []string) {
	w.WriteByte('{')
	for i, a := range attrs {
		if i > 0 {
			w.WriteByte(',')
		}
		k, _ := json.Marshal(a) // marshalling a string cannot fail
		v, _ := json.Marshal(vals[i])
		w.Write(k)
		w.WriteByte(':')
		w.Write(v)
	}
	w.WriteString("}\n")
}

// reference computes each body's expected summary with the AST engine:
// Guard.Apply for rows and flags, Guard.CheckRow for violation counts.
// Rows are encoded against a copy of the schema's dictionaries, so unseen
// strings get fresh codes past the dictionary, as serve's codec does.
func (in *serveInputs) reference(rows [][][]string) error {
	schema, err := dataset.FromCSV(bytes.NewReader(in.prog.schemaCSV), datasetName)
	if err != nil {
		return err
	}
	prog, err := dsl.Parse(in.prog.text, schema)
	if err != nil {
		return err
	}
	in.want = make([]summary, len(rows))
	in.perRow = make([][]rowVerdict, len(rows))
	for b, body := range rows {
		rel := schema.SelectRows(nil)
		for _, r := range body {
			if err := rel.AppendRow(r); err != nil {
				return err
			}
		}
		g := core.NewGuard(prog, core.Ignore)
		rep, err := g.Apply(rel)
		if err != nil {
			return err
		}
		s := summary{Rows: rep.RowsChecked, Flagged: rep.RowsFlagged}
		per := make([]rowVerdict, rel.NumRows())
		row := make([]int32, rel.NumAttrs())
		for i := range per {
			vs, err := g.CheckRow(rel.Row(i, row))
			if err != nil {
				return err
			}
			per[i] = rowVerdict{flagged: rep.Flagged[i], violations: len(vs)}
			s.Violations += len(vs)
		}
		in.want[b], in.perRow[b] = s, per
	}
	return nil
}

// cliInputs is one dirty CSV file and its AST-engine rectify reference.
type cliInputs struct {
	prog      *postalProgram
	csv       []byte
	rows      int
	wantOut   []byte
	wantCells int
}

func newCLIInputs(sz sizes, seed int64) (*cliInputs, error) {
	prog, err := newPostalProgram(sz, seed)
	if err != nil {
		return nil, err
	}
	rel, err := dirtyPostal(sz, sz.CSVRows, seed+200)
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := rel.ToCSV(&csv); err != nil {
		return nil, err
	}
	in := &cliInputs{prog: prog, csv: csv.Bytes(), rows: rel.NumRows()}
	var out bytes.Buffer
	rep, err := rectify(in, &out, false, trace.Scope{})
	if err != nil {
		return nil, fmt.Errorf("AST rectify reference: %w", err)
	}
	in.wantOut, in.wantCells = out.Bytes(), rep.CellsChanged
	return in, nil
}

// synthInputs are samples of Table 2 dataset 3, each with the program a
// Workers=1 synthesis produces.
//
// The samples are a fixed pool, bn's seeds 1..SynthSets, and the run's
// seed relabels every attribute's values with a seeded permutation of the
// attribute's own value names. Relabeling changes every input while
// leaving the work exactly as it was (G² statistics, the learned CPDAG,
// the MEC, cache hits and solver calls are all invariant under it). A
// fresh sample per seed would not: the MEC of a dataset-3 sample ranges
// from 4 to 96 DAGs, and with a fresh pool per seed the interquartile
// range of a run's p50 over 5 seeds was 17% of its median.
type synthInputs struct {
	rels  []*dataset.Relation
	seeds []int64
	want  []string
}

func newSynthInputs(sz sizes, seed int64) (*synthInputs, error) {
	spec, err := bn.SpecByID(3)
	if err != nil {
		return nil, err
	}
	in := &synthInputs{}
	for s := int64(1); s <= int64(sz.SynthSets); s++ {
		sample, err := spec.Generate(1.0, s)
		if err != nil {
			return nil, err
		}
		rel, err := relabel(sample, seed*1000+s)
		if err != nil {
			return nil, err
		}
		text, err := synthesize(rel, s, 1)
		if err != nil {
			return nil, fmt.Errorf("Workers=1 reference: %w", err)
		}
		in.rels = append(in.rels, rel)
		in.seeds = append(in.seeds, s)
		in.want = append(in.want, text)
	}
	return in, nil
}

// relabel returns rel with each attribute's values renamed by a seeded
// permutation of that attribute's value names.
func relabel(rel *dataset.Relation, seed int64) (*dataset.Relation, error) {
	rng := rand.New(rand.NewSource(seed))
	perms := make([][]int, rel.NumAttrs())
	for a := range perms {
		perms[a] = rng.Perm(rel.Cardinality(a))
	}
	out := dataset.New(rel.Name(), rel.Attrs())
	vals := make([]string, rel.NumAttrs())
	for i := 0; i < rel.NumRows(); i++ {
		for a := range vals {
			vals[a] = rel.Dict(a).Value(int32(perms[a][rel.Code(i, a)]))
		}
		if err := out.AppendRow(vals); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// synthesize is one synth op: core.Synthesize with its defaults at the
// given worker count, rendered in surface syntax.
func synthesize(rel *dataset.Relation, seed int64, workers int) (string, error) {
	res, err := core.Synthesize(rel, core.Options{Seed: seed, Workers: workers})
	if err != nil {
		return "", err
	}
	return dsl.Format(res.Program, rel), nil
}
