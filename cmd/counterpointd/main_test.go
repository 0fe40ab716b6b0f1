package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeAndShutdown boots the daemon on an ephemeral port, exercises a
// request end to end, and checks cancellation shuts it down cleanly.
func TestServeAndShutdown(t *testing.T) {
	addrCh := make(chan net.Addr, 1)
	testListenerHook = func(a net.Addr) { addrCh <- a }
	defer func() { testListenerHook = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-max-concurrent", "2"}, &out)
	}()

	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited early: %v (output %q)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never bound its listener")
	}
	base := fmt.Sprintf("http://%s", addr)

	// The catalogue is seeded at boot: m0 is servable by name.
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Models []string `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Models) == 0 {
		t.Fatal("no catalogue models registered at boot")
	}
	seeded := map[string]bool{}
	for _, m := range list.Models {
		seeded[m] = true
	}
	for _, want := range []string{"m0", "t17", "a3", "discovered"} {
		if !seeded[want] {
			t.Fatalf("catalogue model %q missing from %v", want, list.Models)
		}
	}

	// A round trip through the verdict path: register a model, test it.
	reg := `{"name":"pde","source":"incr load.causes_walk;\nswitch Pde$Status { Hit => pass; Miss => incr load.pde$_miss; };\ndone;"}`
	resp, err = http.Post(base+"/v1/models", "application/json", strings.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	resp.Body.Close()
	body := `{"label":"x","events":["load.causes_walk","load.pde$_miss"],"samples":[[10,2],[11,2],[10,3],[12,2],[11,3]]}`
	resp, err = http.Post(base+"/v1/models/pde/test", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("test endpoint status %d", resp.StatusCode)
	}
	resp.Body.Close()
	// A catalogue model rejects observations that do not record its
	// counters instead of zero-filling them.
	resp, err = http.Post(base+"/v1/models/m0/test", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial observation against m0: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// The exploration jobs API is wired up: an empty listing at boot, and
	// a template submission is accepted and eventually terminal.
	resp, err = http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jl struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jl); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(jl.Jobs) != 0 {
		t.Fatalf("jobs at boot: %d", len(jl.Jobs))
	}
	submit := `{"source":"incr load.causes_walk;\n#if extra\nswitch S { Yes => incr load.causes_walk; No => pass; };\n#endif\ndone;",` +
		`"observations":[{"label":"r","events":["load.causes_walk"],"samples":[[10],[11],[10],[12],[11]]}]}`
	resp, err = http.Post(base+"/v1/explore", "application/json", strings.NewReader(submit))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explore submit status %d", resp.StatusCode)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err = http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "cancelled" {
			t.Fatalf("exploration job ended %q", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for exploration job (state %q)", st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("graceful shutdown hung")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("output %q missing shutdown notice", out.String())
	}
}

func TestFlagValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-confidence", "2"}, &bytes.Buffer{}); err == nil {
		t.Fatal("confidence 2 must be rejected")
	}
	if err := run(context.Background(), []string{"-bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown flag must be rejected")
	}
	if err := run(context.Background(), []string{"-pprof-addr", "not-an-address"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unlistenable pprof address must be rejected")
	}
}

// TestPprofEndpoint boots the daemon with -pprof-addr and fetches a
// profile index from the dedicated listener, then checks the service mux
// does NOT expose pprof.
func TestPprofEndpoint(t *testing.T) {
	addrCh := make(chan net.Addr, 1)
	testListenerHook = func(a net.Addr) { addrCh <- a }
	defer func() { testListenerHook = nil }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-pprof-addr", "127.0.0.1:0"}, &out)
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("daemon exited early: %v (output %q)", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never bound its listener")
	}

	// The pprof address is reported on the boot line.
	var pprofBase string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := regexp.MustCompile(`pprof on (http://\S+/debug/pprof/)`).FindStringSubmatch(out.String()); m != nil {
			pprofBase = m[1]
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if pprofBase == "" {
		t.Fatalf("pprof address never reported (output %q)", out.String())
	}
	resp, err := http.Get(pprofBase)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", pprofBase, resp.StatusCode)
	}
	// The service mux must not serve profiles.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("service address must not expose pprof")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: run writes from its own
// goroutine while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestHTTPServerTimeouts checks the daemon's server bounds header reads
// and idle keep-alives but leaves whole-request read/write unbounded, so
// long-lived NDJSON uploads and event follows are never cut.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v would cut streaming requests", hs.ReadTimeout, hs.WriteTimeout)
	}
}
