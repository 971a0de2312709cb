package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// tinySize runs every layer of every workload in well under a second.
var tinySize = sizes{
	PostalCodes:  16,
	TrainRows:    800,
	BodyRows:     20,
	Bodies:       3,
	MinOps:       6,
	CSVRows:      400,
	SynthSets:    1,
	SetupReps:    2,
	FixedReqs:    3,
	ReplayBodies: 2,
}

// runTiny executes one tiny run and returns its exit code, its provenance
// record and its contract line.
func runTiny(t *testing.T, workload string, traced, corrupt bool) (int, map[string]any, outcome) {
	t.Helper()
	cfg := config{workload: workload, seed: 3, seconds: 1, traced: traced, sz: tinySize,
		spec: readSpec(t), outDir: t.TempDir(), corrupt: corrupt}
	var stdout, stderr bytes.Buffer
	code := execute(cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("%s: want a record and a contract line, got %q (stderr %q)", workload, stdout.String(), stderr.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatalf("record line: %v", err)
	}
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("contract line: %v", err)
	}
	if len(keys) != 4 {
		t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", sortedKeys(keys))
	}
	var out outcome
	if err := json.Unmarshal(last, &out); err != nil {
		t.Fatalf("contract line: %v", err)
	}
	return code, rec, out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func names(ms []metricUnit) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestSpecNotesCoverBenchmarkJSON checks that spec.go describes exactly
// the workloads and per-layer metrics BENCHMARK.json lists.
func TestSpecNotesCoverBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	var wls []string
	for _, w := range s.Workloads {
		wls = append(wls, w.Name)
	}
	sort.Strings(wls)
	if got, want := strings.Join(sortedKeys(workloadNotes), ","), strings.Join(wls, ","); got != want {
		t.Errorf("spec.go notes workloads %s, BENCHMARK.json lists %s", got, want)
	}
	if got, want := strings.Join(sortedKeys(layerNotes), ","), strings.Join(names(s.PerLayer), ","); got != want {
		t.Errorf("spec.go notes per-layer metrics %s, BENCHMARK.json lists %s", got, want)
	}
	for name, n := range workloadNotes {
		if n.Loop == "" || len(n.Stresses) == 0 || len(n.Bypasses) == 0 || n.OtherBound <= 0 {
			t.Errorf("workload %s: incomplete notes %+v", name, n)
		}
	}
	for name, n := range layerNotes {
		if n.Workload == "" || n.Moves == "" {
			t.Errorf("per-layer metric %s does not say where it is measured and what it should move", name)
		}
	}
}

// TestWorkloadsRunEndToEnd runs every workload untraced at a tiny size and
// checks the contract line carries exactly BENCHMARK.json's end-to-end
// metrics, with every op passing its reference.
func TestWorkloadsRunEndToEnd(t *testing.T) {
	s := readSpec(t)
	want := names(s.EndToEnd)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, rec, out := runTiny(t, w.Name, false, false)
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("exit %d, outcome %+v", code, out)
			}
			if got := sortedKeys(out.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("metrics %v, BENCHMARK.json end_to_end %v", got, want)
			}
			for name, v := range out.Metrics {
				if !(v.Value > 0) {
					t.Errorf("%s = %v, want a positive measurement", name, v.Value)
				}
			}
			r := rec["record"].(map[string]any)
			for _, k := range []string{"commit", "go_version", "gomaxprocs", "nproc", "cpu_model", "seed", "seconds", "ops", "results"} {
				if _, ok := r[k]; !ok {
					t.Errorf("record lacks %q", k)
				}
			}
		})
	}
}

// TestTracedRunPrintsEveryLayer runs the traced run, whose replay checks
// (served bytes, staged synthesis, CLI output) must pass, and checks it
// prints exactly BENCHMARK.json's per-layer metrics.
func TestTracedRunPrintsEveryLayer(t *testing.T) {
	want := names(readSpec(t).PerLayer)
	// serve's remainder bound holds for 1,000-row bodies, which spread the
	// fixed cost of a request (tens of µs) to a few ns a row. A tiny body
	// of 20 rows leaves µs of it on each row, a third of the row's time,
	// so this run widens the bound; TestRemainderOutsideBoundFails covers
	// the check itself.
	n := workloadNotes[wlServe]
	t.Cleanup(func() { workloadNotes[wlServe] = n })
	wide := n
	wide.OtherBound = 1
	workloadNotes[wlServe] = wide
	code, _, out := runTiny(t, wlServe, true, false)
	if code != 0 || !out.Correct || out.Failed != 0 {
		t.Fatalf("exit %d, outcome %+v", code, out)
	}
	if got := sortedKeys(out.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("metrics %v, BENCHMARK.json per_layer %v", got, want)
	}
	if v := out.Metrics["serve.chunks_per_row"].Value; v < 1 {
		t.Errorf("serve.chunks_per_row = %v, want at least one chunk per verdict", v)
	}
	if v := out.Metrics["core.cells_changed"].Value; v < 1 {
		t.Errorf("core.cells_changed = %v, want the dirty rows repaired", v)
	}
}

// TestCorruptedReferenceFails proves the oracle bites: with every
// workload's reference perturbed, every op fails, failed_frac says so,
// and the exit code is nonzero.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, w := range readSpec(t).Workloads {
		t.Run(w.Name, func(t *testing.T) {
			code, rec, out := runTiny(t, w.Name, false, true)
			if code == 0 {
				t.Errorf("exit code 0 with a corrupted reference")
			}
			if out.Correct || out.Failed == 0 || out.Failed != out.Attempted {
				t.Errorf("outcome %+v, want every op failed", out)
			}
			frac := -1.0
			for _, r := range rec["record"].(map[string]any)["results"].([]any) {
				if m := r.(map[string]any); m["metric"] == "failed_frac" {
					frac = m["value"].(float64)
				}
			}
			if frac != 1 {
				t.Errorf("failed_frac = %v, want 1", frac)
			}
		})
	}
}

// TestRemainderOutsideBoundFails checks that a remainder share outside a
// workload's bound, on either side, counts a failed check.
func TestRemainderOutsideBoundFails(t *testing.T) {
	for _, c := range []struct {
		workload string
		share    float64
		fail     bool
	}{
		{wlServe, 0.1, false}, {wlServe, -0.1, false}, {wlServe, 0.2, true}, {wlServe, -0.2, true},
		{wlCLI, 0.01, false}, {wlCLI, 0.03, true}, {wlSynth, -0.03, true}, {wlSynth, math.NaN(), true},
	} {
		var r runResult
		r.checkRemainder(c.workload, "x.other_share", c.share)
		if r.attempted != 1 || (r.failed == 1) != c.fail {
			t.Errorf("%s share %v: attempted %d failed %d, want failed %v", c.workload, c.share, r.attempted, r.failed, c.fail)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestRelabelKeepsSynthesisWork(t *testing.T) {
	in1, err := newSynthInputs(tinySize, 1)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := newSynthInputs(tinySize, 2)
	if err != nil {
		t.Fatal(err)
	}
	if in1.want[0] == in2.want[0] {
		t.Errorf("seeds 1 and 2 gave the same synth input")
	}
	a, err := synthMirror(in1.rels[0], in1.seeds[0], 1, trace.Scope{}, &timedTester{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := synthMirror(in2.rels[0], in2.seeds[0], 1, trace.Scope{}, &timedTester{})
	if err != nil {
		t.Fatal(err)
	}
	if a.tests != b.tests || a.dags != b.dags || a.sel.CacheHits != b.sel.CacheHits || a.sel.SolverCalls != b.sel.SolverCalls {
		t.Errorf("relabeled inputs did different work: %+v / %+v vs %+v / %+v", a, a.sel, b, b.sel)
	}
}

// TestReplayMatchesServed holds the traced run's mirror of the serve
// handler to the real one: each body replayed through the public calls,
// traced or not, must give the bytes the daemon serves for it.
func TestReplayMatchesServed(t *testing.T) {
	in, err := newServeInputs(tinySize, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, cs, err := bootDaemon(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		closeClients(cs)
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	rp, err := newReplayer(d.entry)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := rp.close(); err != nil {
			t.Error(err)
		}
	}()
	for b, body := range in.bodies {
		served, _, err := rawCheck(d.addr, body)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := lastSummary(served); err != nil || got != in.want[b] {
			t.Errorf("body %d: served summary %+v (%v), reference %+v", b, got, err, in.want[b])
		}
		for _, sc := range []trace.Scope{{}, trace.New(1).Root()} {
			if _, err := rp.request(body, sc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rp.out.Bytes(), served) {
				t.Errorf("body %d (traced %v): replay\n%s\nserved\n%s", b, sc.Enabled(), rp.out.Bytes(), served)
			}
		}
	}
}
