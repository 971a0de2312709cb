package core

import (
	"fmt"
	"io"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// StreamStats summarizes a streaming guard pass.
type StreamStats struct {
	Rows    int
	Flagged int
	Changed int // cells rewritten by coerce/rectify
}

// StreamCSV vets a CSV stream row by row against the guard, writing the
// (possibly repaired) rows to w — the online half of Example 1.2 for data
// pipelines that never materialize a relation. The header must match
// schema's attributes; unknown values intern into schema's dictionaries.
// Under Raise, the first violating row aborts the stream.
func (g *Guard) StreamCSV(r io.Reader, w io.Writer, schema *dataset.Relation) (*StreamStats, error) {
	ssp := g.tr.Start("stream.csv").Str("strategy", g.strategy.String()).Str("engine", g.engine.String())
	defer ssp.End()
	rsc := g.tr.Under(ssp)
	cr := dataset.NewCSVReader(r)
	rec, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("core: reading stream header: %w", err)
	}
	if len(rec) != schema.NumAttrs() {
		return nil, fmt.Errorf("core: stream has %d columns, schema has %d", len(rec), schema.NumAttrs())
	}
	header := make([]string, len(rec))
	for i, h := range rec {
		header[i] = string(h)
	}
	// Map header columns to schema attributes, rejecting duplicates: a
	// duplicated name passes the width check while another attribute is
	// never written, so its slot would silently carry a stale value. With
	// duplicates rejected, width match + pigeonhole guarantees every
	// schema attribute is covered.
	colOf := make([]int, len(header))
	dicts := make([]*dataset.Dict, len(header))
	seen := make([]bool, schema.NumAttrs())
	for i, h := range header {
		idx := schema.AttrIndex(h)
		if idx < 0 {
			return nil, fmt.Errorf("core: stream column %q not in schema", h)
		}
		if seen[idx] {
			return nil, fmt.Errorf("core: duplicate stream column %q", h)
		}
		seen[idx] = true
		colOf[i] = idx
		dicts[i] = schema.Dict(idx)
	}
	// Missing cells go out empty, as they came in.
	cw := dataset.NewCSVWriter(w, dicts, "")
	// The rows before a failure still reach w; the failure is the error
	// reported, so a flush error on that path adds nothing.
	defer func() { _ = cw.Flush() }()
	if err := cw.WriteStrings(header); err != nil {
		return nil, err
	}

	stats := &StreamStats{}
	row := make([]int32, schema.NumAttrs())
	before := make([]int32, schema.NumAttrs())
	out := make([]int32, len(header))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, fmt.Errorf("core: reading stream row %d: %w", stats.Rows, err)
		}
		if len(rec) != len(header) {
			return stats, fmt.Errorf("core: row %d has %d fields, want %d", stats.Rows, len(rec), len(header))
		}
		var rsp trace.Span
		if g.tr.Enabled() && stats.Rows%g.sampleEvery == 0 {
			rsp = rsc.Start("stream.row").Int("row", int64(stats.Rows))
		}
		for i, v := range rec {
			if len(v) == 0 {
				row[colOf[i]] = dataset.Missing
			} else {
				row[colOf[i]] = dicts[i].InternBytes(v)
			}
		}
		copy(before, row)
		vs, err := g.CheckRow(row)
		if len(vs) > 0 {
			// Count the violation before a Raise abort: the row was
			// detected even though it is not written downstream.
			stats.Flagged++
			g.metrics.streamFlagged.Inc()
		}
		rsp.End()
		if err != nil {
			return stats, fmt.Errorf("core: row %d: %w", stats.Rows, err)
		}
		for i := range out {
			c := row[colOf[i]]
			if c != before[colOf[i]] {
				stats.Changed++
				g.metrics.streamChanged.Inc()
			}
			out[i] = c
		}
		if err := cw.WriteCodes(out); err != nil {
			return stats, err
		}
		stats.Rows++
		g.metrics.streamRows.Inc()
	}
	return stats, cw.Flush()
}

// ExplainViolation renders a violation in terms of schema's names, for
// logs and error messages.
func ExplainViolation(v dsl.Violation, schema *dataset.Relation) string {
	return fmt.Sprintf("statement %d: %s should be %q (found %q)",
		v.Stmt, schema.Attr(v.Attr),
		schema.Dict(v.Attr).Value(v.Expected), schema.Dict(v.Attr).Value(v.Actual))
}
