package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/guardrail-db/guardrail/internal/auxdist"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/graph"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/pc"
	"github.com/guardrail-db/guardrail/internal/stats"
	"github.com/guardrail-db/guardrail/internal/synth"
)

// The traced run measures each layer from outside: the benchmark wraps a
// span (internal/obs/trace) around every call it makes into a layer's
// public functions and adds no tracing inside the program. A layer's
// self time is its spans' time minus their children's, less what the
// spans themselves cost (sampled on empty spans in every round); the op's
// root span keeps what no layer claims, reported as the workload's
// *.other_* metric and checked against the workload's bound. Every
// workload's layers are replayed, so one traced run prints every
// per-layer metric; the named workload gets half the time and its
// runtime.* and trace.overhead_frac figures are the ones printed.

// mirrorStats are the figures a mirror reports for the named workload.
type mirrorStats struct {
	gcFrac, allocsPerRow, overhead float64
}

func runTraced(cfg config) (*runResult, error) {
	share := func(w string) time.Duration {
		if w == cfg.workload {
			return cfg.duration() / 2
		}
		return cfg.duration() / 4
	}
	res := &runResult{}
	stats := map[string]mirrorStats{}
	for _, m := range []struct {
		name string
		run  func(config, time.Duration, *runResult) (mirrorStats, error)
	}{{wlServe, traceServe}, {wlCLI, traceCLI}, {wlSynth, traceSynth}} {
		st, err := m.run(cfg, share(m.name), res)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", m.name, err)
		}
		stats[m.name] = st
	}
	st := stats[cfg.workload]
	res.set("runtime.gc_cpu_frac", st.gcFrac)
	res.set("runtime.allocs_per_row", st.allocsPerRow)
	res.set("trace.overhead_frac", st.overhead)
	return res, nil
}

// spanCost is what one span adds to the times the traced run reads, in
// ns: inside is the part its own recorded duration holds (from the clock
// read in Start to the one in End), wall the whole cost of a Start and End
// pair, all of which its parent's duration holds.
type spanCost struct{ inside, wall float64 }

// spanTotals accumulates, per span name, the spans' raw self time (their
// duration minus their children's), their count and their children's
// count. It also samples the cost of an empty span, once per round, so
// the samples see the same machine conditions as the spans they correct.
// A span's self time is its raw self time less its own inside cost and
// the outside cost of each child.
type spanTotals struct {
	rawNS, count, kids map[string]int64
	inside, wall       []float64 // per-batch means of empty spans
}

func newSpanTotals() *spanTotals {
	return &spanTotals{rawNS: map[string]int64{}, count: map[string]int64{}, kids: map[string]int64{}}
}

func (t *spanTotals) add(recs []trace.Record) {
	childNS := map[trace.SpanID]int64{}
	kids := map[trace.SpanID]int64{}
	for _, r := range recs {
		if !r.Instant && r.Parent != 0 {
			childNS[r.Parent] += r.Dur
			kids[r.Parent]++
		}
	}
	for _, r := range recs {
		if !r.Instant {
			t.rawNS[r.Name] += r.Dur - childNS[r.ID]
			t.count[r.Name]++
			t.kids[r.Name] += kids[r.ID]
		}
	}
}

// sampleCost times one batch of empty spans.
func (t *spanTotals) sampleCost() {
	const n = 512
	tr := trace.New(1)
	root := tr.Root()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		root.Start("empty").End()
	}
	t.wall = append(t.wall, float64(time.Since(t0))/n)
	var sum int64
	for _, r := range tr.Records() {
		sum += r.Dur
	}
	t.inside = append(t.inside, float64(sum)/n)
}

// cost is the median of the sampled empty-span costs.
func (t *spanTotals) cost() spanCost {
	return spanCost{inside: median(t.inside), wall: median(t.wall)}
}

// noteCost records the cost the figures were corrected by.
func (t *spanTotals) noteCost(res *runResult, layer string) {
	c := t.cost()
	res.note(layer+".span_inside_ns", c.inside, "ns")
	res.note(layer+".span_wall_ns", c.wall, "ns")
}

// perSpan is a span name's mean self time per span, in ns.
func (t *spanTotals) perSpan(name string) float64 {
	c, n := t.cost(), float64(max(t.count[name], 1))
	return (float64(t.rawNS[name]) - float64(t.count[name])*c.inside - float64(t.kids[name])*(c.wall-c.inside)) / n
}

// serveLayers are the spans of one replayed row, one per layer; none has
// children.
var serveLayers = []string{"serve.decode", "serve.codec", "core.detect", "serve.render", "serve.flush"}

// rawSum is the total raw self time of the named spans so far.
func (t *spanTotals) rawSum(names []string) int64 {
	var s int64
	for _, n := range names {
		s += t.rawNS[n]
	}
	return s
}

// writeChrome saves one op's spans as a Chrome trace under dir.
func writeChrome(dir, name string, tr *trace.Tracer) error {
	if dir == "" || tr == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, "perfbench-trace-"+name+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = tr.WriteChrome(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// check counts one replayed op, or one check of the traced run, as
// failed when err is not nil.
func (r *runResult) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.note("traced_check_failed", 1, "count")
		fmt.Fprintln(os.Stderr, "perfbench: traced run:", err)
	}
}

// checkRemainder records a workload's remainder share under name and
// counts a failed check when it lies outside the workload's bound.
func (r *runResult) checkRemainder(workload, name string, share float64) {
	r.note(name, share, "frac")
	var err error
	if b := workloadNotes[workload].OtherBound; !(math.Abs(share) <= b) {
		err = fmt.Errorf("%s = %.4f, outside ±%g: the named layers do not account for the op", name, share, b)
	}
	r.check(err)
}

// lockedBuffer is an access-log sink safe for concurrent writers.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// take returns and clears what has been logged.
func (l *lockedBuffer) take() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := bytes.Clone(l.b.Bytes())
	l.b.Reset()
	return out
}

// admitWaitsUS reads the access log's admission waits, in µs.
func admitWaitsUS(log []byte) ([]float64, error) {
	var out []float64
	for _, line := range bytes.Split(bytes.TrimSpace(log), []byte("\n")) {
		var rec struct {
			WaitNS int64 `json:"wait_ns"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("access log line %.80q: %w", line, err)
		}
		out = append(out, float64(rec.WaitNS)/1e3)
	}
	return out, nil
}

func traceServe(cfg config, budget time.Duration, res *runResult) (mirrorStats, error) {
	in, err := newServeInputs(cfg.sz, cfg.seed)
	if err != nil {
		return mirrorStats{}, err
	}
	log := &lockedBuffer{}
	d, cs, err := bootDaemon(in, log)
	if err != nil {
		return mirrorStats{}, err
	}
	defer func() {
		closeClients(cs)
		if err := d.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: drain:", err)
		}
	}()
	o := newServeOracle(in)
	var st mirrorStats
	frac := func(f float64) time.Duration { return time.Duration(f * float64(budget)) }

	// All clients, closed loop: throughput, admission waits, GC share and
	// allocations (client and server share the process).
	log.take()
	c0, m0 := readCPU(), mallocs()
	full := closedLoop(cs, o, frac(0.35), 0)
	m1, c1 := mallocs(), readCPU()
	st.gcFrac = gcFrac(c0, c1)
	st.allocsPerRow = float64(m1-m0) / float64(max(full.rows, 1))
	waits, err := admitWaitsUS(log.take())
	if err != nil {
		return st, err
	}
	res.set("serve.admit_wait_us_p99", quantile(waits, 0.99))

	res.attempted += full.attempted
	res.failed += full.failed

	// A 1-row request end to end: the fixed cost per request.
	single := in.firstRow()
	fixed := closedLoop(cs[:1], newServeOracle(single), 0, cfg.sz.FixedReqs)
	res.attempted += fixed.attempted
	res.failed += fixed.failed
	res.set("serve.request_fixed_us", quantile(fixed.lat, 0.5)*1e3)

	// The served bytes and chunk framing of each replayed body.
	nb := min(cfg.sz.ReplayBodies, len(in.bodies))
	served := make([][]byte, nb)
	chunks, rows := 0, 0
	for b := 0; b < nb; b++ {
		body, n, err := rawCheck(d.addr, in.bodies[b])
		res.check(err)
		if err != nil {
			return st, err
		}
		served[b], chunks, rows = body, chunks+n, rows+in.want[b].Rows
	}
	res.set("serve.chunks_per_row", float64(chunks)/float64(rows))

	// Each round serves a body to one client (the serial baseline, and
	// the served time the replayed layers are set against), then replays
	// it traced and untraced. Interleaving puts all three under the same
	// machine conditions. Every replayed response must equal the served
	// one byte for byte.
	rp, err := newReplayer(d.entry)
	if err != nil {
		return st, err
	}
	spans := newSpanTotals()
	var tracedNS, plainNS []float64 // per row
	// Per round, per row: the served time, and the served time less the
	// replayed layers' raw self time.
	var servedNS, otherRawNS []float64
	servedRows := 0
	var servedTime time.Duration
	var keep *trace.Tracer
	stop := time.Now().Add(frac(0.65))
	for k := 0; k == 0 || time.Now().Before(stop); k++ {
		b := k % nb
		t0 := time.Now()
		var resp []byte
		resp, err = cs[0].post(in.bodies[b])
		took := time.Since(t0)
		servedTime += took
		servedNS = append(servedNS, float64(took)/float64(in.want[b].Rows))
		if err == nil {
			err = o.check(b, resp)
		}
		res.check(err)
		if err != nil {
			break
		}
		servedRows += in.want[b].Rows

		tr := trace.New(1)
		root := tr.Root()
		sp := root.Start("serve.request").Str("request", fmt.Sprintf("replay-%d", k)).Int("body", int64(b))
		t0 = time.Now()
		var n int
		n, err = rp.request(in.bodies[b], root.Under(sp))
		took = time.Since(t0)
		sp.End()
		if err == nil && !bytes.Equal(rp.out.Bytes(), served[b]) {
			err = fmt.Errorf("body %d: replayed verdicts differ from the served response", b)
		}
		res.check(err)
		if err != nil {
			break
		}
		before, rows0 := spans.rawSum(serveLayers), spans.count[serveLayers[0]]
		spans.add(tr.Records())
		spans.sampleCost()
		layersRaw := float64(spans.rawSum(serveLayers)-before) / float64(spans.count[serveLayers[0]]-rows0)
		otherRawNS = append(otherRawNS, servedNS[len(servedNS)-1]-layersRaw)
		tracedNS = append(tracedNS, float64(took)/float64(n))
		if keep == nil {
			keep = tr
		}

		t0 = time.Now()
		n, err = rp.request(in.bodies[b], trace.Scope{})
		plainNS = append(plainNS, float64(time.Since(t0))/float64(n))
		if err != nil {
			break
		}
	}
	if cerr := rp.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, err
	}
	for _, l := range serveLayers {
		res.set(l+"_ns_per_row", spans.perSpan(l))
	}
	serialRate := float64(servedRows) / servedTime.Seconds()
	res.set("serve.serial_rows_per_s", serialRate)
	res.set("serve.parallel_speedup", float64(full.rows)/full.elapsed.Seconds()/serialRate)
	// The remainder is the median over rounds of the served time per row
	// less that round's replayed layers, each layer span corrected by its
	// inside cost. Pairing by round cancels what the machine did to both.
	other := median(otherRawNS) + float64(len(serveLayers))*spans.cost().inside
	res.set("serve.other_ns_per_row", other)
	res.checkRemainder(wlServe, "serve.other_share", other/median(servedNS))
	spans.noteCost(res, "serve")
	st.overhead = median(tracedNS)/median(plainNS) - 1

	decodeAllocs, renderAllocs, err := replayAllocs(rp, in.bodies[:nb])
	if err != nil {
		return st, err
	}
	res.set("serve.decode_allocs_per_row", decodeAllocs)
	res.set("serve.render_allocs_per_row", renderAllocs)
	return st, writeChrome(cfg.outDir, wlServe, keep)
}

// firstRow is a 1-row request made of body 0's first row, with its
// reference.
func (in *serveInputs) firstRow() *serveInputs {
	first := in.bodies[0][:bytes.IndexByte(in.bodies[0], '\n')+1]
	v := in.perRow[0][0]
	s := summary{Rows: 1, Violations: v.violations}
	if v.flagged {
		s.Flagged = 1
	}
	return &serveInputs{prog: in.prog, bodies: [][]byte{first}, want: []summary{s}}
}

// replayAllocs measures the heap allocations per row of JSON decoding
// alone and of verdict rendering alone, each in a pass of its own: the
// allocation counter stops the world, so it cannot split one pass.
func replayAllocs(rp *replayer, bodies [][]byte) (decode, render float64, err error) {
	var maps []map[string]string
	m0 := mallocs()
	for _, body := range bodies {
		dec := json.NewDecoder(bytes.NewReader(body))
		for {
			var row map[string]string
			if dec.Decode(&row) != nil {
				break
			}
			maps = append(maps, row)
		}
	}
	decode = float64(mallocs()-m0) / float64(len(maps))

	// Codes, raw values and violations of every row, for rendering.
	type detected struct {
		raw  []string
		viol []dsl.Violation
	}
	rows := make([]detected, len(maps))
	for i, m := range maps {
		if err := rp.encodeRow(m); err != nil {
			return 0, 0, err
		}
		rp.vbuf = rp.e.Detect(rp.codes, rp.vbuf)
		rows[i] = detected{raw: append([]string(nil), rp.raw...), viol: append([]dsl.Violation(nil), rp.vbuf...)}
	}
	m0 = mallocs()
	for i, r := range rows {
		rp.raw, rp.vbuf = r.raw, r.viol
		if err := rp.render(i); err != nil {
			return 0, 0, err
		}
	}
	render = float64(mallocs()-m0) / float64(len(rows))
	return decode, render, nil
}

func traceCLI(cfg config, budget time.Duration, res *runResult) (mirrorStats, error) {
	in, err := newCLIInputs(cfg.sz, cfg.seed)
	if err != nil {
		return mirrorStats{}, err
	}
	var st mirrorStats

	// Allocations of the CSV codec alone, each in a pass of its own.
	m0 := mallocs()
	rel, err := dataset.FromCSV(bytes.NewReader(in.csv), "dirty.csv")
	if err != nil {
		return st, err
	}
	m1 := mallocs()
	var out bytes.Buffer
	out.Grow(len(in.csv))
	if err := rel.ToCSV(&out); err != nil {
		return st, err
	}
	m2 := mallocs()
	res.set("dataset.fromcsv_allocs_per_row", float64(m1-m0)/float64(in.rows))
	res.set("dataset.tocsv_allocs_per_row", float64(m2-m1)/float64(in.rows))

	spans := newSpanTotals()
	var traced, plain []float64
	var gcCPU, allCPU float64
	var allocs uint64
	var keep *trace.Tracer
	cells := 0
	stop := time.Now().Add(budget)
	for k := 0; k == 0 || time.Now().Before(stop); k++ {
		out.Reset()
		freshHeap()
		tr := trace.New(1)
		root := tr.Root()
		sp := root.Start("cli.op")
		t0 := time.Now()
		rep, err := rectify(in, &out, true, root.Under(sp))
		d := time.Since(t0)
		sp.End()
		if err == nil {
			err = in.check(rep, out.Bytes())
			cells = rep.CellsChanged
		}
		res.check(err)
		if err != nil {
			return st, err
		}
		spans.add(tr.Records())
		spans.sampleCost()
		traced = append(traced, ms(d))
		if keep == nil {
			keep = tr
		}

		out.Reset()
		freshHeap()
		c0, a0 := readCPU(), mallocs()
		t0 = time.Now()
		_, err = rectify(in, &out, true, trace.Scope{})
		plain = append(plain, ms(time.Since(t0)))
		a1, c1 := mallocs(), readCPU()
		if err != nil {
			return st, err
		}
		gcCPU += c1.gc - c0.gc
		allCPU += c1.total - c0.total
		allocs += a1 - a0
	}
	perRow := func(span string) float64 { return spans.perSpan(span) / float64(in.rows) }
	perOpMS := func(span string) float64 { return spans.perSpan(span) / 1e6 }
	res.set("dataset.fromcsv_ns_per_row", perRow("dataset.fromcsv"))
	res.set("dsl.parse_ms", perOpMS("dsl.parse"))
	res.set("compile.compile_ms", perOpMS("compile.compile"))
	res.set("core.apply_ns_per_row", perRow("core.apply"))
	res.set("core.cells_changed", float64(cells))
	res.set("dataset.tocsv_ns_per_row", perRow("dataset.tocsv"))
	res.set("cli.other_ms", perOpMS("cli.op"))
	res.checkRemainder(wlCLI, "cli.other_share", perOpMS("cli.op")/mean(traced))
	spans.noteCost(res, "cli")
	if allCPU > 0 {
		st.gcFrac = gcCPU / allCPU
	}
	st.allocsPerRow = float64(allocs) / float64(len(plain)*in.rows)
	st.overhead = median(traced)/median(plain) - 1
	return st, writeChrome(cfg.outDir, wlCLI, keep)
}

// timedTester counts and times the CI tests PC asks for. PC calls it from
// several workers at once.
type timedTester struct {
	stats.CITester
	calls, ns atomic.Int64
}

func (t *timedTester) Test(x, y int, z []int) (stats.TestResult, error) {
	t0 := time.Now()
	r, err := t.CITester.Test(x, y, z)
	t.ns.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	return r, err
}

// synthStages is what one staged synthesis saw.
type synthStages struct {
	program string
	tests   int
	dags    int
	sel     *synth.Selection
}

// synthMirror runs core.Synthesize's pipeline stage by stage with its
// defaults: aux sampling, PC over a G² tester, MEC enumeration (at most
// 256 DAGs), then fill and select. Each stage gets a span under sc.
func synthMirror(rel *dataset.Relation, seed int64, workers int, sc trace.Scope, tt *timedTester) (*synthStages, error) {
	sp := sc.Start("auxdist.sample")
	aux, err := auxdist.Sample(rel, auxdist.Options{Seed: seed, Workers: workers})
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = sc.Start("pc.learn")
	tt.CITester = stats.Tester(aux)
	learned, err := pc.LearnFrom(tt, pc.Options{Alpha: 0.01, MaxCond: 3, Workers: workers})
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = sc.Start("graph.enum")
	dags, err := graph.EnumerateMEC(learned.CPDAG, 256)
	sp.End()
	if err != nil && err != graph.ErrEnumLimit {
		return nil, err
	}
	sp = sc.Start("synth.select")
	sel, err := synth.SelectProgram(rel, dags, aux, synth.Options{Seed: seed, Workers: workers})
	sp.End()
	if err != nil {
		return nil, err
	}
	return &synthStages{program: dsl.Format(sel.Program, rel), tests: learned.Tests, dags: len(dags), sel: sel}, nil
}

func traceSynth(cfg config, budget time.Duration, res *runResult) (mirrorStats, error) {
	in, err := newSynthInputs(cfg.sz, cfg.seed)
	if err != nil {
		return mirrorStats{}, err
	}
	var st mirrorStats
	spans := newSpanTotals()
	var traced, plain, serial []float64
	var gcCPU, allCPU float64
	var allocs uint64
	var tests, dags, hits, lookups, deduped, candidates, calls int64
	tt := &timedTester{}
	var keep *trace.Tracer
	rows := 0
	stop := time.Now().Add(budget)
	for k := 0; k == 0 || time.Now().Before(stop); k++ {
		i := k % len(in.rels)
		rel, seed := in.rels[i], in.seeds[i]
		tr := trace.New(1)
		root := tr.Root()
		freshHeap()
		sp := root.Start("synth.op").Int("dataset_seed", seed)
		t0 := time.Now()
		s, err := synthMirror(rel, seed, nproc, root.Under(sp), tt)
		d := time.Since(t0)
		sp.End()
		if err == nil && s.program != in.want[i] {
			err = fmt.Errorf("dataset %d: staged synthesis differs from core.Synthesize", i)
		}
		res.check(err)
		if err != nil {
			return st, err
		}
		spans.add(tr.Records())
		spans.sampleCost()
		traced = append(traced, ms(d))
		if keep == nil {
			keep = tr
		}
		tests += int64(s.tests)
		dags += int64(s.dags)
		hits += int64(s.sel.CacheHits)
		lookups += int64(s.sel.CacheHits + s.sel.CacheMisses)
		deduped += int64(s.sel.DedupedPrograms)
		candidates += int64(s.dags - s.sel.PrunedPrograms)
		calls += s.sel.SolverCalls

		freshHeap()
		c0, a0 := readCPU(), mallocs()
		t0 = time.Now()
		text, err := synthesize(rel, seed, nproc)
		plain = append(plain, ms(time.Since(t0)))
		a1, c1 := mallocs(), readCPU()
		if err == nil && text != in.want[i] {
			err = fmt.Errorf("dataset %d: program differs from the Workers=1 reference", i)
		}
		if err != nil {
			return st, err
		}
		gcCPU += c1.gc - c0.gc
		allCPU += c1.total - c0.total
		allocs += a1 - a0
		rows += rel.NumRows()

		freshHeap()
		t0 = time.Now()
		if _, err := synthesize(rel, seed, 1); err != nil {
			return st, err
		}
		serial = append(serial, ms(time.Since(t0)))
	}
	n := float64(len(traced))
	perOpMS := func(span string) float64 { return spans.perSpan(span) / 1e6 }
	res.set("auxdist.sample_ms", perOpMS("auxdist.sample"))
	res.set("pc.learn_ms", perOpMS("pc.learn"))
	res.set("pc.ci_tests", float64(tests)/n)
	res.set("stats.ci_test_us", float64(tt.ns.Load())/float64(max(tt.calls.Load(), 1))/1e3)
	res.set("graph.enum_ms", perOpMS("graph.enum"))
	res.set("graph.dags", float64(dags)/n)
	res.set("synth.select_ms", perOpMS("synth.select"))
	res.set("synth.cache_hit_frac", float64(hits)/float64(max(lookups, 1)))
	res.set("synth.dedup_frac", float64(deduped)/float64(max(candidates, 1)))
	res.set("synth.solver_calls", float64(calls)/n)
	res.set("synth.serial_ms", mean(serial))
	res.set("synth.parallel_speedup", mean(serial)/mean(plain))
	res.set("synth.other_ms", perOpMS("synth.op"))
	res.checkRemainder(wlSynth, "synth.other_share", perOpMS("synth.op")/mean(traced))
	spans.noteCost(res, "synth")
	if allCPU > 0 {
		st.gcFrac = gcCPU / allCPU
	}
	st.allocsPerRow = float64(allocs) / float64(max(rows, 1))
	st.overhead = mean(traced)/mean(plain) - 1
	return st, writeChrome(cfg.outDir, wlSynth, keep)
}
