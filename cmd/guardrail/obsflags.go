package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/obs/debug"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
)

// obsFlags carries the observability flags shared by the pipeline
// subcommands: -report writes the JSON run-report, -debug-addr serves
// live Prometheus /metrics and pprof profiles while the command runs, and -trace records a hierarchical span tree and exports
// it as a Chrome trace-event file (loadable in Perfetto / chrome://tracing).
type obsFlags struct {
	report    *string
	debugAddr *string
	trace     *string
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	return &obsFlags{
		report:    fs.String("report", "", "write a JSON run-report (counters + stage timings) to this path"),
		debugAddr: fs.String("debug-addr", "", "serve live Prometheus /metrics and pprof on this address (e.g. localhost:6060)"),
		trace:     fs.String("trace", "", "write a Chrome trace-event JSON file (Perfetto-loadable) to this path"),
	}
}

// start builds the metrics registry, the tracer (nil unless -trace is
// set; workers sizes its per-worker lanes), and, when -debug-addr is
// set, the debug HTTP server. The returned finish func must run after
// the command's work: it stops the server, exports the trace, prints the
// critical path, and writes the -report file.
func (o *obsFlags) start(command string, workers int) (*obs.Registry, *trace.Tracer, func() error, error) {
	reg := obs.New()
	var tr *trace.Tracer
	if *o.trace != "" {
		if workers < 1 {
			workers = 1
		}
		tr = trace.New(workers)
	}
	var srv *debug.Server
	if *o.debugAddr != "" {
		s, err := debug.Serve(*o.debugAddr, reg)
		if err != nil {
			return nil, nil, nil, err
		}
		srv = s
		fmt.Fprintf(os.Stderr, "debug server listening on http://%s/metrics (profiles on /debug/pprof/)\n", srv.Addr)
	}
	finish := func() error {
		if srv != nil {
			if err := srv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "guardrail: closing debug server:", err)
			}
		}
		if tr != nil {
			f, err := os.Create(*o.trace)
			if err != nil {
				return err
			}
			werr := tr.WriteChrome(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
			fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (load in Perfetto or chrome://tracing)\n", *o.trace)
			if path := tr.CriticalPath(); len(path) > 0 {
				fmt.Fprint(os.Stderr, trace.FormatCriticalPath(path))
			}
		}
		if *o.report != "" {
			return obs.WriteReportWithTrace(*o.report, command, reg, tr)
		}
		return nil
	}
	return reg, tr, finish, nil
}
