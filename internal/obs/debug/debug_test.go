package debug

import (
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/guardrail-db/guardrail/internal/obs"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() {
		if err := resp.Body.Close(); err != nil {
			t.Errorf("close body: %v", err)
		}
	}()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestMetricsLive: /metrics reflects a later increment on the next
// scrape.
func TestMetricsLive(t *testing.T) {
	reg := obs.New()
	reg.Counter("guard.raise.rows_checked").Add(7)
	s, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	}()

	for _, want := range []string{"guardrail_guard_raise_rows_checked 7", "guardrail_guard_raise_rows_checked 10"} {
		code, body := get(t, "http://"+s.Addr+"/metrics")
		if code != http.StatusOK || !strings.Contains(string(body), want+"\n") {
			t.Errorf("status %d, want sample %q:\n%s", code, want, body)
		}
		reg.Counter("guard.raise.rows_checked").Add(3)
	}
}

// TestServePprof: the pprof index and a cheap profile endpoint respond.
func TestServePprof(t *testing.T) {
	s, err := Serve("127.0.0.1:0", obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	}()

	code, body := get(t, "http://"+s.Addr+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index: status %d\n%s", code, body)
	}
	code, _ = get(t, "http://"+s.Addr+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Errorf("goroutine profile: status %d", code)
	}
}

// TestServeTwice: serving again publishes the latest registry on
// /metrics.
func TestServeTwice(t *testing.T) {
	reg2 := obs.New()
	reg2.Counter("second").Inc()
	for i, reg := range []*obs.Registry{obs.New(), reg2} {
		s, err := Serve("127.0.0.1:0", reg)
		if err != nil {
			t.Fatalf("serve #%d: %v", i, err)
		}
		_, body := get(t, "http://"+s.Addr+"/metrics")
		if i == 1 && !strings.Contains(string(body), "guardrail_second 1") {
			t.Errorf("latest registry not published:\n%s", body)
		}
		if err := s.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	}
}

// TestServeBadAddr: listen errors surface synchronously.
func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("127.0.0.1:-1", obs.New()); err == nil {
		t.Fatal("want error for invalid address")
	}
}

// TestCloseDrainsInflightScrape: a /metrics scrape admitted before Close
// must finish with a complete body rather than a reset connection —
// Close drains via Shutdown instead of tearing the listener down under
// the in-flight handler. The scrape handler is parked on a channel via
// the test hook, so Close provably overlaps the request.
func TestCloseDrainsInflightScrape(t *testing.T) {
	reg := obs.New()
	reg.Counter("guard.ignore.rows_checked").Add(42)
	s, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	release := make(chan struct{})
	testHookScrape = func() {
		close(started)
		<-release
	}
	defer func() { testHookScrape = nil }()

	type scrape struct {
		status int
		body   string
		err    error
	}
	scrapes := make(chan scrape, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr + "/metrics")
		if err != nil {
			scrapes <- scrape{err: err}
			return
		}
		body, err := io.ReadAll(resp.Body)
		cerr := resp.Body.Close()
		if err == nil {
			err = cerr
		}
		scrapes <- scrape{status: resp.StatusCode, body: string(body), err: err}
	}()

	<-started // the scrape is in the handler
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// Close (graceful or not) shuts the listener first; wait until new
	// dials are refused so the teardown provably started — only then let
	// the parked handler write. A Close that tears down connections along
	// with the listener has already reset the scrape at this point.
	for {
		conn, err := net.Dial("tcp", s.Addr)
		if err != nil {
			break
		}
		if err := conn.Close(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release) // let the handler write its response under the drain

	if err := <-closed; err != nil {
		t.Errorf("Close during in-flight scrape: %v", err)
	}
	got := <-scrapes
	if got.err != nil {
		t.Fatalf("in-flight scrape aborted by Close: %v", got.err)
	}
	if got.status != http.StatusOK {
		t.Errorf("scrape status = %d", got.status)
	}
	if !strings.Contains(got.body, "guardrail_guard_ignore_rows_checked 42") {
		t.Errorf("scrape body truncated or wrong:\n%s", got.body)
	}
}

// TestHandleExtras: handlers registered with Handle are reachable on a
// debug server whether registered before or after Serve, unknown paths
// still 404, and built-in routes win over extras.
func TestHandleExtras(t *testing.T) {
	Handle("/debug/before", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("before"))
	}))
	s, err := Serve("127.0.0.1:0", obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("close server: %v", err)
		}
	}()
	Handle("/debug/after", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("after"))
	}))

	for path, want := range map[string]string{"/debug/before": "before", "/debug/after": "after"} {
		code, body := get(t, "http://"+s.Addr+path)
		if code != http.StatusOK || string(body) != want {
			t.Errorf("GET %s = %d %q, want 200 %q", path, code, body, want)
		}
	}
	if code, _ := get(t, "http://"+s.Addr+"/debug/missing"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
	// /metrics is a built-in and must not be shadowed by extras.
	Handle("/metrics", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "shadowed", http.StatusTeapot)
	}))
	if code, _ := get(t, "http://"+s.Addr+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics = %d, want 200 (built-ins take precedence)", code)
	}
}
