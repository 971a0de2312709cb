// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time from a seed, checks every operation against a
// reference, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	bash perfbench/run.sh --workload cli-rectify --seed 1 --seconds 30 --trace 0
//
// The line before it is a provenance record keyed by (workload, metric).
// The workloads and the metrics each run prints, with their units, are
// read from BENCHMARK.json in the working directory; spec.go describes
// them further.
// --workload all runs every workload in turn. The exit code is 0 when
// every operation matched its reference, 1 when any did not or a
// workload could not run, and 2 on bad arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// config is one invocation: the workload, its inputs' seed and size, the
// measured time, and whether this is the traced run.
type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	sz       sizes
	spec     *benchSpec
	outDir   string // where the traced run writes its Chrome traces; "" skips them
	// corrupt perturbs each workload's reference after it is built, so
	// every op must fail its check. Tests use it to prove the oracle bites.
	corrupt bool
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// runResult is what one workload run measured.
type runResult struct {
	attempted, failed int
	values            map[string]float64 // by metric name, as in BENCHMARK.json
	notes             []note             // record-only values, e.g. failed_frac
}

// note is a value printed in the provenance record but not in the
// contract line.
type note struct {
	Name  string  `json:"metric"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

func (r *runResult) note(name string, v float64, unit string) {
	r.notes = append(r.notes, note{name, v, unit})
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sz: fullSize}
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	fs.StringVar(&cfg.outDir, "out-dir", "", "directory for the traced run's Chrome traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.traced = *trace == 1
	if (*trace != 0 && *trace != 1) || cfg.seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload <name|all> --seed <n> --seconds <n> --trace <0|1>")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg.spec = spec
	if !spec.hasWorkload(cfg.workload) && cfg.workload != "all" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	return execute(cfg, stdout, stderr)
}

// execute runs cfg's workload (every workload for "all"), printing a
// provenance record per workload and then the contract line, and returns
// the exit code.
func execute(cfg config, stdout, stderr io.Writer) int {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = nil
		for _, w := range cfg.spec.Workloads {
			names = append(names, w.Name)
		}
	}
	total := outcome{Correct: true, Metrics: map[string]metricValue{}}
	var last outcome
	for _, name := range names {
		c := cfg
		c.workload = name
		res, err := runWorkload(c)
		if err == nil {
			last, err = printRecord(stdout, c, res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		total.Attempted += last.Attempted
		total.Failed += last.Failed
		total.Correct = total.Correct && last.Correct
		for k, v := range last.Metrics {
			total.Metrics[name+"/"+k] = v
		}
	}
	if len(names) > 1 {
		last = total
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !last.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed their reference check\n", last.Failed, last.Attempted)
		return 1
	}
	return 0
}

func runWorkload(cfg config) (*runResult, error) {
	if cfg.traced {
		return runTraced(cfg)
	}
	switch cfg.workload {
	case wlServe:
		return runServe(cfg)
	case wlCLI:
		return runCLI(cfg)
	case wlSynth:
		return runSynth(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the contract line: exactly these four keys.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// keyed is one result in the provenance record, keyed by (workload, metric).
type keyed struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
}

// printRecord writes the provenance record for one workload run and
// returns its contract line, which carries exactly the metrics
// BENCHMARK.json lists for the run's kind. A listed metric the run did not
// produce, or a produced one it does not list, is a bug in the benchmark
// and an error.
func printRecord(w io.Writer, cfg config, res *runResult) (outcome, error) {
	specs := cfg.spec.EndToEnd
	if cfg.traced {
		specs = cfg.spec.PerLayer
	}
	if len(res.values) != len(specs) {
		return outcome{}, fmt.Errorf("run produced %d metrics, BENCHMARK.json lists %d", len(res.values), len(specs))
	}
	out := outcome{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	var results []keyed
	for _, m := range specs {
		v, ok := res.values[m.Name]
		if !ok {
			return outcome{}, fmt.Errorf("run produced no %s", m.Name)
		}
		out.Metrics[m.Name] = metricValue{v, m.Unit}
		results = append(results, keyed{cfg.workload, m.Name, v, m.Unit})
	}
	failedFrac := 0.0
	if res.attempted > 0 {
		failedFrac = float64(res.failed) / float64(res.attempted)
	}
	res.note("failed_frac", failedFrac, "frac")
	for _, n := range res.notes {
		results = append(results, keyed{cfg.workload, n.Name, n.Value, n.Unit})
	}
	rec := struct {
		Record struct {
			Workload string `json:"workload"`
			provenance
			Ops struct {
				Attempted int `json:"attempted"`
				Succeeded int `json:"succeeded"`
				Failed    int `json:"failed"`
			} `json:"ops"`
			Results []keyed `json:"results"`
		} `json:"record"`
	}{}
	rec.Record.Workload = cfg.workload
	rec.Record.provenance = stamp(cfg.seed, cfg.seconds, cfg.traced)
	rec.Record.Ops.Attempted = res.attempted
	rec.Record.Ops.Succeeded = res.attempted - res.failed
	rec.Record.Ops.Failed = res.failed
	rec.Record.Results = results
	line, err := json.Marshal(rec)
	if err != nil {
		return outcome{}, err
	}
	fmt.Fprintln(w, string(line))
	return out, nil
}
