package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"testing"

	"repro/internal/storage"
)

// schemaOneEnvelope renders a document as schema 1 of the store kept it:
// one indented JSON envelope with the compacted document under "state".
func schemaOneEnvelope(t *testing.T, fp string, doc []byte) []byte {
	t.Helper()
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(struct {
		Magic       string          `json:"magic"`
		Schema      int             `json:"schema"`
		Seed        uint64          `json:"seed"`
		Fingerprint string          `json:"fingerprint"`
		CRC         uint32          `json:"crc"`
		State       json.RawMessage `json:"state"`
	}{docMagic, 1, 0, fp, crc32.ChecksumIEEE(compact.Bytes()), compact.Bytes()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// studyBytes computes a spec's document and marshals it the way the daemon
// does before storing it.
func studyBytes(t *testing.T, spec Spec) []byte {
	t.Helper()
	doc, err := Run(context.Background(), spec, 0)
	if err != nil {
		t.Fatalf("Run %+v: %v", spec, err)
	}
	doc.Manifest.GitDescribe = "test-checkout"
	b, err := doc.Marshal()
	if err != nil {
		t.Fatalf("marshal %+v: %v", spec, err)
	}
	return b
}

// TestStoreKeepsPutBytes pins the store's contract: Get returns exactly
// the bytes Put was given, and the file holds them verbatim after its
// header line, for a run, a table and a lint document.
func TestStoreKeepsPutBytes(t *testing.T) {
	mem := storage.NewMemFS()
	st, err := OpenStoreFS(mem, "store", 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, spec := range []Spec{
		{Kind: "run", Version: "STD", Samples: 1},
		{Kind: "table", Table: 4},
		{Kind: "lint"},
	} {
		doc := studyBytes(t, spec)
		fp := spec.Normalized().Fingerprint("test-checkout")
		if err := st.Put(fp, doc); err != nil {
			t.Fatalf("%s: Put: %v", spec.Kind, err)
		}
		got, err := st.Get(fp)
		if err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("%s: Get returned other bytes than Put stored (err %v)", spec.Kind, err)
		}
		file, err := mem.ReadFile(st.docPath(fp))
		if err != nil {
			t.Fatalf("%s: read: %v", spec.Kind, err)
		}
		if _, payload, _ := bytes.Cut(file, []byte{'\n'}); !bytes.Equal(payload, doc) {
			t.Fatalf("%s: the file does not hold the document verbatim after its header line", spec.Kind)
		}
	}
}

// TestStorePutRefusesNonJSON: a store never holds a document that is not
// JSON, although Get no longer parses what it returns.
func TestStorePutRefusesNonJSON(t *testing.T) {
	st, err := OpenStoreFS(storage.NewMemFS(), "store", 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	err = st.Put("abcd", []byte("{\"torn\": \n"))
	var ee *storage.EnvelopeError
	if !errors.As(err, &ee) || ee.Reason != "io" {
		t.Fatalf("Put of a non-JSON document = %v, want an EnvelopeError with reason io", err)
	}
	if doc, err := st.Get("abcd"); doc != nil || err != nil {
		t.Fatalf("Get after a refused Put = (%q, %v), want a miss", doc, err)
	}
}

// TestStoreSchemaOneDocIsMiss: a document stored in the schema-1 layout is
// a cache miss, not a 500. Its spec recomputes, Put overwrites the file in
// the current layout, and the next request is a hit. This matters where
// the fingerprint does not change across versions (no git describe).
func TestStoreSchemaOneDocIsMiss(t *testing.T) {
	mem := storage.NewMemFS()
	s, ts := newTestServer(t, Config{FS: mem, StoreDir: "store"})
	r1, want := post(t, ts, lintSpec)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("submit: %s", r1.Status)
	}
	fp := r1.Header.Get("X-Protolat-Fingerprint")
	old := schemaOneEnvelope(t, fp, want)
	if err := mem.WriteFile(s.store.docPath(fp), old, 0o644); err != nil {
		t.Fatalf("plant schema-1 document: %v", err)
	}

	if doc, err := s.store.Get(fp); doc != nil || err != nil {
		t.Fatalf("Get of a schema-1 document = (%d bytes, %v), want a miss", len(doc), err)
	}
	if resp, body := get(t, ts, "/v1/results/"+fp); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of a schema-1 document: %s: %s", resp.Status, body)
	}
	r2, got := post(t, ts, lintSpec)
	if r2.StatusCode != http.StatusOK || r2.Header.Get("X-Protolat-Cache") != "computed" {
		t.Fatalf("resubmit over a schema-1 document: %s, cache %q", r2.Status, r2.Header.Get("X-Protolat-Cache"))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recomputed document differs from the first")
	}
	if file, _ := mem.ReadFile(s.store.docPath(fp)); bytes.Equal(file, old) {
		t.Fatal("Put did not overwrite the schema-1 document")
	}
	r3, hit := post(t, ts, lintSpec)
	if r3.Header.Get("X-Protolat-Cache") != "hit" || !bytes.Equal(hit, want) {
		t.Fatalf("third submission: cache %q, identical %v; want a byte-identical hit",
			r3.Header.Get("X-Protolat-Cache"), bytes.Equal(hit, want))
	}
}
