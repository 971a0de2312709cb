package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"

	"github.com/guardrail-db/guardrail/internal/dataset"
	"github.com/guardrail-db/guardrail/internal/dsl"
	"github.com/guardrail-db/guardrail/internal/obs/trace"
	"github.com/guardrail-db/guardrail/internal/serve"
)

// The serve handler's row loop is private, so the traced run replays a
// request body through the public calls that loop makes, in its order:
// JSON decode, the row codec (AttrIndex, Dict.Lookup, grown codes for
// unseen strings), Entry.Detect, verdict rendering (Attr, Dict.Value,
// JSON encode), and one chunked write and flush per verdict on a loopback
// connection. The wire structs below mirror the handler's field for
// field; TestReplayMatchesServed and the traced run's byte comparison
// with the served response keep the mirror from drifting.

type apiViolation struct {
	Stmt     int    `json:"stmt"`
	Attr     string `json:"attr"`
	Expected string `json:"expected"`
	Actual   string `json:"actual"`
}

type verdict struct {
	Row        int            `json:"row"`
	Flagged    bool           `json:"flagged"`
	Violations []apiViolation `json:"violations"`
}

// replayer holds one replayed request's state, reused across requests.
type replayer struct {
	e     *serve.Entry
	conn  net.Conn
	bw    *bufio.Writer
	codes []int32
	raw   []string
	unk   []map[string]int32 // per-request codes of unseen strings
	vbuf  []dsl.Violation
	line  bytes.Buffer
	enc   *json.Encoder
	out   bytes.Buffer // the response body, unframed
	drain chan error
}

// newReplayer connects a loopback TCP pair; the far end is read and
// discarded, as a client reading verdicts would.
func newReplayer(e *serve.Entry) (*replayer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	far, err := ln.Accept()
	if err != nil {
		conn.Close()
		return nil, err
	}
	n := e.Schema.NumAttrs()
	r := &replayer{
		e: e, conn: conn, bw: bufio.NewWriter(conn),
		codes: make([]int32, n), raw: make([]string, n), unk: make([]map[string]int32, n),
		drain: make(chan error, 1),
	}
	r.enc = json.NewEncoder(&r.line)
	go func() {
		_, err := io.Copy(io.Discard, far)
		far.Close()
		r.drain <- err
	}()
	return r, nil
}

// close shuts the loopback pair and waits for the reader to finish.
func (r *replayer) close() error {
	r.conn.Close()
	return <-r.drain
}

// rowSample is how often the replay traces a row: one row in rowSample
// gets its five layer spans. Tracing every row would add two clock reads
// and a record per layer per row, a visible share of the few µs a row
// costs, and buffer 5,000 records per request.
const rowSample = 8

// request replays one NDJSON body, with a span per layer on every
// rowSample-th row under sc (the zero scope replays untraced). It returns
// the row count; the unframed response body is left in r.out.
func (r *replayer) request(body []byte, sc trace.Scope) (int, error) {
	r.out.Reset()
	for i := range r.unk {
		r.unk[i] = nil
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var sum summary
	for i := 0; ; i++ {
		sc := sc
		if i%rowSample != 0 {
			sc = trace.Scope{}
		}
		sp := sc.Start("serve.decode")
		var row map[string]string
		err := dec.Decode(&row)
		sp.End()
		if err == io.EOF {
			break
		}
		if err != nil {
			return sum.Rows, fmt.Errorf("decoding row %d: %w", i, err)
		}

		sp = sc.Start("serve.codec")
		err = r.encodeRow(row)
		sp.End()
		if err != nil {
			return sum.Rows, err
		}

		sp = sc.Start("core.detect")
		r.vbuf = r.e.Detect(r.codes, r.vbuf)
		sp.End()

		sp = sc.Start("serve.render")
		err = r.render(i)
		sp.End()
		if err != nil {
			return sum.Rows, err
		}

		sp = sc.Start("serve.flush")
		err = r.chunk(r.line.Bytes())
		sp.End()
		if err != nil {
			return sum.Rows, err
		}

		r.out.Write(r.line.Bytes())
		sum.Rows++
		if len(r.vbuf) > 0 {
			sum.Flagged++
		}
		sum.Violations += len(r.vbuf)
	}
	r.line.Reset()
	if err := r.enc.Encode(struct {
		Summary summary `json:"summary"`
	}{sum}); err != nil {
		return sum.Rows, err
	}
	r.out.Write(r.line.Bytes())
	if err := r.chunk(r.line.Bytes()); err != nil {
		return sum.Rows, err
	}
	r.bw.WriteString("0\r\n\r\n")
	return sum.Rows, r.bw.Flush()
}

// encodeRow is the serve codec: unknown keys are an error, absent
// attributes are Missing, dictionary values keep their code, and each
// distinct unseen string gets the next code past the dictionary.
func (r *replayer) encodeRow(m map[string]string) error {
	s := r.e.Schema
	for k := range m {
		if s.AttrIndex(k) < 0 {
			return fmt.Errorf("unknown attribute %q", k)
		}
	}
	for i := range r.codes {
		v := m[s.Attr(i)]
		r.raw[i] = v
		r.codes[i] = r.encodeCell(i, v)
	}
	return nil
}

func (r *replayer) encodeCell(attr int, v string) int32 {
	if v == "" {
		return dataset.Missing
	}
	if c, ok := r.e.Schema.Dict(attr).Lookup(v); ok {
		return c
	}
	m := r.unk[attr]
	if m == nil {
		m = make(map[string]int32, 1)
		r.unk[attr] = m
	}
	if c, ok := m[v]; ok {
		return c
	}
	c := int32(r.e.Schema.Cardinality(attr) + len(m))
	m[v] = c
	return c
}

// render encodes row i's verdict line into r.line.
func (r *replayer) render(i int) error {
	s := r.e.Schema
	vs := make([]apiViolation, 0, len(r.vbuf))
	for _, v := range r.vbuf {
		vs = append(vs, apiViolation{
			Stmt:     v.Stmt,
			Attr:     s.Attr(v.Attr),
			Expected: s.Dict(v.Attr).Value(v.Expected),
			Actual:   r.decodeCell(v.Attr, v.Actual),
		})
	}
	r.line.Reset()
	return r.enc.Encode(verdict{Row: i, Flagged: len(r.vbuf) > 0, Violations: vs})
}

func (r *replayer) decodeCell(attr int, code int32) string {
	if code == dataset.Missing {
		return ""
	}
	if int(code) < r.e.Schema.Cardinality(attr) {
		return r.e.Schema.Dict(attr).Value(code)
	}
	return r.raw[attr]
}

// chunk writes p as one HTTP/1.1 chunk and flushes it to the connection,
// as the server's chunk writer does on each Flush.
func (r *replayer) chunk(p []byte) error {
	r.bw.WriteString(strconv.FormatInt(int64(len(p)), 16))
	r.bw.WriteString("\r\n")
	r.bw.Write(p)
	r.bw.WriteString("\r\n")
	return r.bw.Flush()
}

// rawCheck posts body on a fresh connection and reads the response's
// chunked framing by hand, returning the unframed body and the number of
// data chunks the server sent.
func rawCheck(addr string, body []byte) ([]byte, int, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	req := fmt.Sprintf("POST /v1/check?dataset=%s HTTP/1.1\r\nHost: %s\r\n"+
		"Content-Type: application/x-ndjson\r\nContent-Length: %d\r\nConnection: close\r\n\r\n",
		datasetName, addr, len(body))
	werr := make(chan error, 1)
	go func() {
		_, err := conn.Write(append([]byte(req), body...))
		werr <- err
	}()
	payload, chunks, rerr := readChunked(bufio.NewReader(conn))
	if rerr != nil {
		conn.Close() // unblocks the writer if the server stopped reading
	}
	if err := <-werr; err != nil && rerr == nil {
		return nil, 0, err
	}
	return payload, chunks, rerr
}

func readChunked(br *bufio.Reader) ([]byte, int, error) {
	status, err := br.ReadString('\n')
	if err != nil {
		return nil, 0, err
	}
	if !strings.Contains(status, " 200 ") {
		return nil, 0, fmt.Errorf("status line %q", strings.TrimSpace(status))
	}
	chunked := false
	for {
		h, err := br.ReadString('\n')
		if err != nil {
			return nil, 0, err
		}
		h = strings.TrimSpace(h)
		if h == "" {
			break
		}
		if k, v, _ := strings.Cut(h, ":"); strings.EqualFold(k, "Transfer-Encoding") &&
			strings.EqualFold(strings.TrimSpace(v), "chunked") {
			chunked = true
		}
	}
	if !chunked {
		return nil, 0, fmt.Errorf("response is not chunked")
	}
	var payload []byte
	chunks := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, 0, err
		}
		sz, _, _ := strings.Cut(strings.TrimSpace(line), ";")
		n, err := strconv.ParseInt(sz, 16, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("chunk size %q: %w", line, err)
		}
		if n == 0 {
			return payload, chunks, nil
		}
		start := len(payload)
		payload = append(payload, make([]byte, n+2)...)
		if _, err := io.ReadFull(br, payload[start:]); err != nil {
			return nil, 0, err
		}
		payload = payload[:start+int(n)] // drop the chunk's CRLF
		chunks++
	}
}
