package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the R-7 / numpy default). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// procCPU is the CPU time all the process's threads have used, user and
// system. Unlike wall time it does not grow while the hypervisor runs
// another guest on this one's CPUs.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// watchRSS samples the process's resident set size every 10 ms until
// the returned stop function is called; stop returns the largest sample
// in MiB. It first returns the garbage left by input generation to the
// OS, so the figure is the workload's, not the benchmark's set-up: the
// getrusage high-water mark would keep set-up's peak.
func watchRSS() (stop func() float64) {
	debug.FreeOSMemory()
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		p := rssMiB()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p = max(p, rssMiB())
			case <-done:
				peak <- max(p, rssMiB())
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// rssMiB is the process's current resident set size.
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return math.NaN()
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return math.NaN()
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return math.NaN()
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// mallocs reads the cumulative heap allocation count. It stops the world,
// so callers read it only at phase boundaries.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// cpuSample reads the process's cumulative GC and total CPU seconds as the
// runtime accounts them.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// gcFrac is the share of CPU time spent in the garbage collector between
// two samples.
func gcFrac(a, b cpuSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}

// provenance stamps a result with where and how it was measured.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func stamp(seed int64, seconds int, traced bool) provenance {
	return provenance{
		Commit:     buildCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
	}
}

// buildCommit is the VCS revision the binary was built from, when the
// build could see one.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// freshHeap collects garbage before a serial op or a set-up, outside its
// timing, so every one starts from the same heap, as each `guardrail
// rectify` or `guardrail synth` process does. Without it an op's time
// depends on how far the previous op's garbage (or input generation's)
// had pushed the collector's cycle.
func freshHeap() { runtime.GC() }

// setSerialMetrics fills the end-to-end metrics of a workload whose ops
// run one at a time. lat and cpu hold each op's wall and process CPU
// time; throughput is that of the median op, counting only the rows of
// ops that passed their check.
func setSerialMetrics(res *runResult, setup, lat, cpu []float64, rowsPerOp, ok int, rss float64) {
	p50 := quantile(lat, 0.5)
	rate := float64(rowsPerOp) / (p50 / 1e3) * float64(ok) / float64(len(lat))
	setEndToEnd(res, setup, lat, median(cpu), rate, rss)
}

// setEndToEnd fills the end-to-end metrics every workload reports.
// p90 and p99 go to the record only: on a shared 2-vCPU VM, CPU steal
// moves a run's wall-clock tail by up to half between runs, beyond any
// regression bound the contract line could carry.
func setEndToEnd(res *runResult, setup, lat []float64, cpuMS, rowsPerS, rss float64) {
	res.set("setup_s", median(setup))
	res.set("rows_per_s", rowsPerS)
	res.set("p50_ms", quantile(lat, 0.5))
	res.set("cpu_ms_per_op", cpuMS)
	res.set("peak_rss_mb", rss)
	res.note("p90_ms", quantile(lat, 0.9), "ms")
	res.note("p99_ms", quantile(lat, 0.99), "ms")
	res.note("ops_timed", float64(len(lat)), "count")
}
