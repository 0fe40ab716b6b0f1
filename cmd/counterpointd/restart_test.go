package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/perfdb"
	"repro/internal/recordlog"
)

// bootDaemon starts run() with the given extra flags on an ephemeral
// port and returns the base URL plus a shutdown func that stops the
// daemon and waits for a clean exit.
func bootDaemon(t *testing.T, extra ...string) (base string, shutdown func()) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	testListenerHook = func(a net.Addr) { addrCh <- a }
	t.Cleanup(func() { testListenerHook = nil })

	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, extra...)
	go func() { done <- run(ctx, args, &out) }()

	select {
	case a := <-addrCh:
		base = fmt.Sprintf("http://%s", a)
	case err := <-done:
		cancel()
		t.Fatalf("daemon exited early: %v (output %q)", err, out.String())
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never bound its listener")
	}
	return base, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exit: %v (output %q)", err, out.String())
			}
		case <-time.After(15 * time.Second):
			t.Fatal("daemon never shut down")
		}
	}
}

// daemonStats fetches and decodes GET /stats.
func daemonStats(t *testing.T, base string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestVerdictStoreSurvivesRestart boots the daemon with -verdict-db,
// serves a verdict, shuts the process down, boots a second daemon on the
// same store, and checks the same request is served from the persisted
// verdict cache: store hits > 0 and zero solver evaluations.
func TestVerdictStoreSurvivesRestart(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "verdicts.db")
	reg := `{"name":"pde","source":"incr load.causes_walk;\nswitch Pde$Status { Hit => pass; Miss => incr load.pde$_miss; };\ndone;"}`
	body := `{"label":"x","events":["load.causes_walk","load.pde$_miss"],"samples":[[10,2],[11,2],[10,3],[12,2],[11,3]]}`

	serve := func(base string) {
		resp, err := http.Post(base+"/v1/models", "application/json", strings.NewReader(reg))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("register status %d", resp.StatusCode)
		}
		resp, err = http.Post(base+"/v1/models/pde/test", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("test endpoint status %d", resp.StatusCode)
		}
	}

	base1, shutdown1 := bootDaemon(t, "-no-catalog", "-verdict-db", dbPath)
	serve(base1)
	st := daemonStats(t, base1)
	var caches struct {
		StoreHits   uint64 `json:"store_hits"`
		VerdictHits uint64 `json:"verdict_hits"`
	}
	if err := json.Unmarshal(st["caches"], &caches); err != nil {
		t.Fatal(err)
	}
	if caches.StoreHits != 0 {
		t.Fatalf("first boot already had %d store hits", caches.StoreHits)
	}
	shutdown1()

	base2, shutdown2 := bootDaemon(t, "-no-catalog", "-verdict-db", dbPath)
	defer shutdown2()
	serve(base2)
	st = daemonStats(t, base2)
	if err := json.Unmarshal(st["caches"], &caches); err != nil {
		t.Fatal(err)
	}
	if caches.StoreHits == 0 {
		t.Fatalf("restarted daemon served no persisted verdict hits: caches %s", st["caches"])
	}
	var evals uint64
	if err := json.Unmarshal(st["evaluations"], &evals); err != nil {
		t.Fatal(err)
	}
	if evals != 0 {
		t.Fatalf("restarted daemon ran %d solver evaluations, want 0 (persisted verdicts)", evals)
	}
}

// TestVerdictStoreBootLog: the boot line reports a repaired verdict
// store the way the job-journal line does, and a store in the old text
// format fails boot with a message naming the fix, its bytes untouched.
func TestVerdictStoreBootLog(t *testing.T) {
	boot := func(path string) (string, error) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // print the boot lines, then shut straight down
		var out bytes.Buffer
		err := run(ctx, []string{"-addr", "127.0.0.1:0", "-no-catalog", "-verdict-db", path}, &out)
		return out.String(), err
	}

	torn := filepath.Join(t.TempDir(), "verdicts.db")
	vs, err := perfdb.OpenVerdictStore(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := vs.Put([32]byte{1}, true); err != nil {
		t.Fatal(err)
	}
	if err := vs.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(torn, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A frame header cut short by a crash.
	if _, err := f.Write([]byte{0xCF, 0x4A, 0x10}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := boot(torn)
	if err != nil {
		t.Fatalf("boot on a torn store: %v", err)
	}
	if !strings.Contains(out, "(1 verdicts, torn tail repaired)") {
		t.Fatalf("boot log does not report the repair: %q", out)
	}
	if out, err = boot(torn); err != nil || strings.Contains(out, "repaired") {
		t.Fatalf("second boot: err %v, log %q; want a clean open", err, out)
	}

	legacy := filepath.Join(t.TempDir(), "verdicts.db")
	text := []byte("0101010101010101010101010101010101010101010101010101010101010101 1\n")
	if err := os.WriteFile(legacy, text, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := boot(legacy); err == nil || !strings.Contains(err.Error(), "move or delete it") {
		t.Fatalf("boot on a legacy text store: err = %v, want a move-or-delete message", err)
	}
	if got, err := os.ReadFile(legacy); err != nil || !bytes.Equal(got, text) {
		t.Fatalf("legacy store changed by the refused boot: %q, %v", got, err)
	}
}

// TestVerdictStoreSkipsCLP1Records: verdicts keyed by the retired clp1
// LP encoding (record type 0x10) are skipped and counted on boot, never
// served — even one whose key equals the clp2 hash of a request's LP and
// whose verdict is wrong. The daemon solves that request afresh.
func TestVerdictStoreSkipsCLP1Records(t *testing.T) {
	reg := `{"name":"pde","source":"incr load.causes_walk;\nswitch Pde$Status { Hit => pass; Miss => incr load.pde$_miss; };\ndone;"}`
	body := `{"label":"x","events":["load.causes_walk","load.pde$_miss"],"samples":[[10,2],[11,2],[10,3],[12,2],[11,3]]}`
	serve := func(base string) bool {
		t.Helper()
		resp, err := http.Post(base+"/v1/models", "application/json", strings.NewReader(reg))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		resp, err = http.Post(base+"/v1/models/pde/test", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v struct {
			Feasible bool `json:"feasible"`
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("test endpoint status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.Feasible
	}

	// A first daemon persists the request's verdict under its clp2 key.
	fresh := filepath.Join(t.TempDir(), "fresh.db")
	base, shutdown := bootDaemon(t, "-no-catalog", "-verdict-db", fresh)
	want := serve(base)
	shutdown()
	var key []byte
	log, _, err := recordlog.Open(faultfs.OS{}, fresh, func(typ byte, p []byte) { key = append([]byte(nil), p[:32]...) })
	if err != nil || key == nil {
		t.Fatalf("reading the fresh store: key %x, err %v", key, err)
	}
	log.Close()

	// A store holding only clp1 records: one under that key with the
	// opposite verdict, one under an unrelated key.
	old := filepath.Join(t.TempDir(), "clp1.db")
	log, _, err = recordlog.Open(faultfs.OS{}, old, func(byte, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	wrong := byte(1)
	if want {
		wrong = 0
	}
	for _, rec := range [][]byte{append(append([]byte(nil), key...), wrong), append(make([]byte, 32), 1)} {
		if err := log.Append(0x10, rec, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // print the boot lines, then shut straight down
	var out bytes.Buffer
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-no-catalog", "-verdict-db", old}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(0 verdicts, 2 clp1 verdicts skipped)") {
		t.Fatalf("boot log does not count the skipped clp1 verdicts: %q", out.String())
	}

	base, shutdown = bootDaemon(t, "-no-catalog", "-verdict-db", old)
	defer shutdown()
	if got := serve(base); got != want {
		t.Fatalf("verdict %v, want %v: a clp1 record was served", got, want)
	}
	st := daemonStats(t, base)
	var evals uint64
	if err := json.Unmarshal(st["evaluations"], &evals); err != nil {
		t.Fatal(err)
	}
	if evals != 1 {
		t.Fatalf("daemon ran %d solver evaluations, want 1 (clp1 records are never served)", evals)
	}
}
