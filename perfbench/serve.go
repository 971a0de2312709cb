package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/guardrail-db/guardrail/internal/obs"
	"github.com/guardrail-db/guardrail/internal/serve"
)

// maxRun caps a serve run that has not reached its minimum op count, so
// a run always ends well inside its time limit.
const maxRun = 120 * time.Second

// daemon is an in-process `guardrail serve` with its defaults: compiled
// engine, flight recorder on, access log off unless given.
type daemon struct {
	entry  *serve.Entry
	url    string // the /v1/check endpoint
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(p *postalProgram, accessLog io.Writer) (*daemon, error) {
	reg := obs.New()
	registry := serve.NewRegistry(reg)
	e, _, err := registry.Load(datasetName, p.schemaCSV, []byte(p.text))
	if err != nil {
		return nil, err
	}
	if e.Compiled == nil {
		return nil, fmt.Errorf("program did not compile: %s", e.CompileErr)
	}
	srv := serve.New(serve.Config{Registry: registry, Obs: reg, AccessLog: accessLog})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		entry:  e,
		addr:   ln.Addr().String(),
		url:    "http://" + ln.Addr().String() + "/v1/check?dataset=" + datasetName,
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { d.done <- srv.Run(ctx, ln) }()
	return d, nil
}

// stop drains the daemon and waits for Run to return.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

// client posts NDJSON bodies on its own keep-alive connection.
type client struct {
	hc   *http.Client
	url  string
	resp bytes.Buffer
}

func newClient(url string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, url: url}
}

// post sends body and returns the response body, valid until the next
// post.
func (c *client) post(body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.resp.Bytes()))
	}
	return c.resp.Bytes(), nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// serveOracle checks responses: the summary line must equal the AST
// reference, and each body's response bytes must hash the same every
// time it is served.
type serveOracle struct {
	in      *serveInputs
	digests []atomic.Uint64 // 0 until body i is first served
}

var crcTable = crc64.MakeTable(crc64.ECMA)

func newServeOracle(in *serveInputs) *serveOracle {
	return &serveOracle{in: in, digests: make([]atomic.Uint64, len(in.bodies))}
}

func (o *serveOracle) check(body int, resp []byte) error {
	got, err := lastSummary(resp)
	if err != nil {
		return err
	}
	if got != o.in.want[body] {
		return fmt.Errorf("body %d: summary %+v, reference %+v", body, got, o.in.want[body])
	}
	d := crc64.Checksum(resp, crcTable) | 1 // never 0, which marks "unseen"
	if !o.digests[body].CompareAndSwap(0, d) && o.digests[body].Load() != d {
		return fmt.Errorf("body %d: response bytes changed between requests", body)
	}
	return nil
}

// lastSummary parses the {"summary": ...} line that ends a response.
func lastSummary(resp []byte) (summary, error) {
	resp = bytes.TrimRight(resp, "\n")
	line := resp[bytes.LastIndexByte(resp, '\n')+1:]
	var s struct {
		Summary *summary `json:"summary"`
	}
	if err := json.Unmarshal(line, &s); err != nil || s.Summary == nil {
		return summary{}, fmt.Errorf("response does not end in a summary line: %.80q", line)
	}
	return *s.Summary, nil
}

// loadResult is one closed-loop phase.
type loadResult struct {
	lat               []float64 // ms per request
	attempted, failed int
	rows              int // rows of requests that passed their check
	elapsed           time.Duration
}

// closedLoop drives one goroutine per client, each sending its next body
// as soon as the previous response is read, until dur has passed and at
// least minOps requests were sent.
func closedLoop(clients []*client, o *serveOracle, dur time.Duration, minOps int) loadResult {
	var sent atomic.Int64
	per := make([]loadResult, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			r := &per[ci]
			for k := ci; ; k += len(clients) {
				el := time.Since(start)
				if el > maxRun || (el >= dur && sent.Load() >= int64(minOps)) {
					return
				}
				sent.Add(1)
				b := k % len(o.in.bodies)
				t0 := time.Now()
				resp, err := clients[ci].post(o.in.bodies[b])
				d := time.Since(t0)
				r.attempted++
				r.lat = append(r.lat, ms(d))
				if err == nil {
					err = o.check(b, resp)
				}
				if err != nil {
					r.failed++
					continue
				}
				r.rows += o.in.want[b].Rows
			}
		}(ci)
	}
	wg.Wait()
	out := loadResult{elapsed: time.Since(start)}
	for _, r := range per {
		out.lat = append(out.lat, r.lat...)
		out.attempted += r.attempted
		out.failed += r.failed
		out.rows += r.rows
	}
	return out
}

func newClients(url string, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(url)
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// bootDaemon is the serve set-up that setup_s times: Registry.Load
// (parse, fingerprint, compile), listener start, and one warm-up request
// per client, which also opens each client's connection. There are nproc
// clients.
func bootDaemon(in *serveInputs, accessLog io.Writer) (*daemon, []*client, error) {
	d, err := startDaemon(in.prog, accessLog)
	if err != nil {
		return nil, nil, err
	}
	cs := newClients(d.url, nproc)
	for i, c := range cs {
		b := i % len(in.bodies)
		resp, err := c.post(in.bodies[b])
		if err == nil {
			_, err = lastSummary(resp)
		}
		if err != nil {
			closeClients(cs)
			return nil, nil, fmt.Errorf("warm-up request: %w (stop: %v)", err, d.stop())
		}
	}
	return d, cs, nil
}

func runServe(cfg config) (*runResult, error) {
	in, err := newServeInputs(cfg.sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		for i := range in.want {
			in.want[i].Flagged++
		}
	}
	var setup []float64
	var d *daemon
	var cs []*client
	for i := 0; i < cfg.sz.SetupReps; i++ {
		if d != nil {
			closeClients(cs)
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		freshHeap()
		t0 := time.Now()
		d, cs, err = bootDaemon(in, nil)
		if err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	stopRSS := watchRSS()
	c0 := procCPU()
	lr := closedLoop(cs, newServeOracle(in), cfg.duration(), cfg.sz.MinOps)
	cpuPerReq := ms(procCPU()-c0) / float64(lr.attempted)
	rss := stopRSS()
	closeClients(cs)
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	res := &runResult{attempted: lr.attempted, failed: lr.failed}
	setEndToEnd(res, setup, lr.lat, cpuPerReq, float64(lr.rows)/lr.elapsed.Seconds(), rss)
	return res, nil
}
