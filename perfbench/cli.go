package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/guardrail-db/guardrail/internal/core"
	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/dsl/compile"
	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// rectify is one cli-rectify op: what `guardrail rectify -in -prog -out`
// does, on in-memory bytes. compiled selects the CLI's default engine;
// false is the AST reference. Each layer call gets a span under sc, so
// the zero scope runs the same calls untraced.
func rectify(in *cliInputs, out *bytes.Buffer, compiled bool, sc trace.Scope) (*core.Report, error) {
	sp := sc.Start("dataset.fromcsv")
	rel, err := dataset.FromCSV(bytes.NewReader(in.csv), "dirty.csv")
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = sc.Start("dsl.parse")
	prog, err := dsl.Parse(in.prog.text, rel)
	sp.End()
	if err != nil {
		return nil, err
	}
	reg := obs.New()
	g := core.NewGuard(prog, core.Rectify).Instrument(reg)
	if compiled {
		sp = sc.Start("compile.compile")
		_, err := g.Compile(compile.Options{Obs: reg})
		sp.End()
		if err != nil {
			// The CLI would fall back to the AST engine; the benchmark
			// fails the op instead, so a program that stops compiling
			// shows up as a failure, not as a slower op.
			return nil, fmt.Errorf("compile: %w", err)
		}
	}
	sp = sc.Start("core.apply")
	rep, err := g.Apply(rel)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = sc.Start("dataset.tocsv")
	err = rel.ToCSV(out)
	sp.End()
	return rep, err
}

// check compares one op's output with the AST reference.
func (in *cliInputs) check(rep *core.Report, out []byte) error {
	if rep.CellsChanged != in.wantCells {
		return fmt.Errorf("cells changed %d, reference %d", rep.CellsChanged, in.wantCells)
	}
	if !bytes.Equal(out, in.wantOut) {
		return fmt.Errorf("rectified CSV differs from the reference")
	}
	return nil
}

func runCLI(cfg config) (*runResult, error) {
	in, err := newCLIInputs(cfg.sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		in.wantCells++
	}
	var out bytes.Buffer
	out.Grow(len(in.csv))
	res := &runResult{}

	// Set-up is the first op, which warms caches and grows the heap;
	// repeating it and taking the median steadies the figure.
	var setup []float64
	for i := 0; i < cfg.sz.SetupReps; i++ {
		out.Reset()
		freshHeap()
		t0 := time.Now()
		if _, err := rectify(in, &out, true, trace.Scope{}); err != nil {
			return nil, fmt.Errorf("warm-up op: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}

	var lat, cpu []float64
	ok := 0
	stopRSS := watchRSS()
	stop := time.Now().Add(cfg.duration())
	for time.Now().Before(stop) {
		out.Reset()
		freshHeap()
		c0, t0 := procCPU(), time.Now()
		rep, err := rectify(in, &out, true, trace.Scope{})
		lat = append(lat, ms(time.Since(t0)))
		cpu = append(cpu, ms(procCPU()-c0))
		res.attempted++
		if err == nil {
			err = in.check(rep, out.Bytes())
		}
		if err != nil {
			res.failed++
			continue
		}
		ok++
	}
	setSerialMetrics(res, setup, lat, cpu, in.rows, ok, stopRSS())
	return res, nil
}
