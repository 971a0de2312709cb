package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The benchmark's contract with its readers. BENCHMARK.json at the
// repository root names the workloads and the metrics each kind of run
// prints, with their units, directions and bounds; the binary reads it.
// This file adds what BENCHMARK.json has no room for: each workload's loop
// kind and the layers it stresses or bypasses, and, for each per-layer
// metric, where it is measured and which end-to-end metric it should move.

const (
	wlServe = "serve-ndjson-check"
	wlCLI   = "cli-rectify"
	wlSynth = "synth"
)

// nproc is the parallelism every workload is defined at: serve's
// closed-loop clients, and the workers of synthesis and of the program
// synthesis the serve and cli-rectify inputs start from.
const nproc = 2

// benchSpec is the part of BENCHMARK.json the binary uses.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricUnit `json:"end_to_end"`
	PerLayer []metricUnit `json:"per_layer"`
}

// metricUnit is one metric a run prints.
type metricUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// workloadNote records what a workload exercises, and the bound on its
// traced run's remainder: |<workload>.other_share|, the share of the op
// that no named layer accounts for, may not exceed OtherBound, or the
// traced run counts a failed op.
type workloadNote struct {
	Loop       string // closed or serial, with its client or worker count
	Stresses   []string
	Bypasses   []string
	OtherBound float64
}

var workloadNotes = map[string]workloadNote{
	wlServe: {
		Loop: "closed loop, 2 clients, each on its own keep-alive connection",
		Stresses: []string{"serve", "dataset (dictionary lookups)", "core (compiled Entry.Detect)",
			"runtime (GC under 2 clients plus server)"},
		Bypasses:   []string{"dataset CSV codec", "dsl parser", "compile (done once at load)", "synthesis"},
		OtherBound: 0.15,
	},
	wlCLI: {
		Loop: "serial, 1 worker",
		Stresses: []string{"dataset (FromCSV, ToCSV)", "dsl (Parse)", "compile", "core (Apply under Rectify)",
			"runtime (GC of a 100k-row relation)"},
		Bypasses:   []string{"serve (HTTP, JSON, flushing)", "synthesis"},
		OtherBound: 0.02,
	},
	wlSynth: {
		Loop: "serial ops, Workers = 2",
		Stresses: []string{"auxdist", "pc", "stats (G² tests)", "graph (MEC enumeration)",
			"synth (fill, statement cache, dsl/analysis dedup)"},
		Bypasses:   []string{"serve", "dataset CSV codec", "compile", "core guard"},
		OtherBound: 0.02,
	},
}

// layerNote records, for a per-layer metric, the workload it is measured
// on and the end-to-end metrics a change to it should move. A traced run
// of any workload prints every per-layer metric: it replays every
// workload's layers, giving the named workload the largest share of the
// time. The runtime.* and trace.overhead_frac metrics describe the named
// workload.
type layerNote struct {
	Workload string
	Moves    string
}

var layerNotes = map[string]layerNote{
	"serve.request_fixed_us":         {wlServe, "p50_ms"},
	"serve.admit_wait_us_p99":        {wlServe, "p99_ms (record line)"},
	"serve.decode_ns_per_row":        {wlServe, "rows_per_s, p50_ms"},
	"serve.decode_allocs_per_row":    {wlServe, "rows_per_s, p50_ms"},
	"serve.codec_ns_per_row":         {wlServe, "rows_per_s"},
	"core.detect_ns_per_row":         {wlServe, "rows_per_s"},
	"serve.render_ns_per_row":        {wlServe, "rows_per_s"},
	"serve.render_allocs_per_row":    {wlServe, "rows_per_s"},
	"serve.flush_ns_per_row":         {wlServe, "rows_per_s, p50_ms; no change on cli-rectify"},
	"serve.chunks_per_row":           {wlServe, "rows_per_s, p50_ms; no change on cli-rectify"},
	"serve.serial_rows_per_s":        {wlServe, "rows_per_s (1-client baseline for parallelism claims)"},
	"serve.parallel_speedup":         {wlServe, "rows_per_s (2 clients over 1 client)"},
	"serve.other_ns_per_row":         {wlServe, "remainder: HTTP framing, gate, telemetry, client; none should move"},
	"dataset.fromcsv_ns_per_row":     {wlCLI, "rows_per_s, p50_ms; no change on serve-ndjson-check"},
	"dataset.fromcsv_allocs_per_row": {wlCLI, "rows_per_s, p50_ms; no change on serve-ndjson-check"},
	"dsl.parse_ms":                   {wlCLI, "p50_ms"},
	"compile.compile_ms":             {wlCLI, "p50_ms; also setup_s on serve-ndjson-check"},
	"core.apply_ns_per_row":          {wlCLI, "rows_per_s"},
	"core.cells_changed":             {wlCLI, "exact count; changes only with behaviour"},
	"dataset.tocsv_ns_per_row":       {wlCLI, "rows_per_s"},
	"dataset.tocsv_allocs_per_row":   {wlCLI, "rows_per_s"},
	"cli.other_ms":                   {wlCLI, "remainder: guard construction; none should move"},
	"auxdist.sample_ms":              {wlSynth, "p50_ms"},
	"pc.learn_ms":                    {wlSynth, "p50_ms, p90_ms (record line)"},
	"pc.ci_tests":                    {wlSynth, "p50_ms, p90_ms (record line)"},
	"stats.ci_test_us":               {wlSynth, "p50_ms, p90_ms (record line)"},
	"graph.enum_ms":                  {wlSynth, "p50_ms"},
	"graph.dags":                     {wlSynth, "p50_ms"},
	"synth.select_ms":                {wlSynth, "p50_ms"},
	"synth.cache_hit_frac":           {wlSynth, "p50_ms"},
	"synth.dedup_frac":               {wlSynth, "p50_ms"},
	"synth.solver_calls":             {wlSynth, "p50_ms"},
	"synth.serial_ms":                {wlSynth, "p50_ms (Workers = 1 baseline for parallelism claims)"},
	"synth.parallel_speedup":         {wlSynth, "p50_ms (Workers = 2 over Workers = 1)"},
	"synth.other_ms":                 {wlSynth, "remainder: CI tester construction and glue; none should move"},
	"runtime.gc_cpu_frac":            {"named workload", "rows_per_s, cpu_ms_per_op, peak_rss_mb on serve-ndjson-check and cli-rectify"},
	"runtime.allocs_per_row":         {"named workload", "rows_per_s, peak_rss_mb on serve-ndjson-check and cli-rectify"},
	"trace.overhead_frac":            {"named workload", "traced over untraced op time, minus 1; none should move"},
}
