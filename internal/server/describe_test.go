package server

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"testing"

	"repro/internal/haswell"
)

// TestDescribeCatalogueGolden pins GET /v1/models/{name} byte for byte for
// the three catalogue models the benchmark's test-fresh workload
// describes: one SHA-256 over each model's name and its raw response
// body (summary, every deduced constraint's text and every μpath
// signature, in enumeration order).
func TestDescribeCatalogueGolden(t *testing.T) {
	const want = "1716246159c12beeb7bfdd322232065980c5fef1cbd9d666bb267e78af6c88c5"
	names := []string{"m0", "a3", "discovered"}
	var catalog []Model
	for _, cm := range haswell.Catalog() {
		for _, n := range names {
			if cm.Name == n {
				catalog = append(catalog, Model{Name: cm.Name, Source: cm.Source})
			}
		}
	}
	if len(catalog) != len(names) {
		t.Fatalf("catalogue has %d of %v", len(catalog), names)
	}
	ts := newTestServer(t, func(o *Options) { o.Catalog = catalog })
	h := sha256.New()
	for _, n := range names {
		resp, err := http.Get(ts.URL + "/v1/models/" + n)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", n, resp.StatusCode, body)
		}
		t.Logf("%s: %d bytes", n, len(body))
		io.WriteString(h, n)
		h.Write([]byte{0})
		h.Write(body)
		h.Write([]byte{0})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("describe digest %s, want %s", got, want)
	}
}
