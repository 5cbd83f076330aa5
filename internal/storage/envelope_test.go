package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"testing"
)

// envelopeIdentity is what a caller of LoadEnvelopeFS expects of a file.
type envelopeIdentity struct {
	magic       string
	schema      int
	fingerprint string
	payload     string // a payload of the kind the format carries
}

// envelopeIdentities are the envelope formats in use: the serve daemon's
// memoized documents and journaled jobs (magics and schema as
// internal/serve declares them).
var envelopeIdentities = []envelopeIdentity{
	{"protolat-serve-doc", 2, "0123456789abcdef", "{\n  \"manifest\": {\n    \"seed\": 1\n  }\n}\n"},
	{"protolat-serve-job", 2, "fedcba9876543210", `{"kind":"lint","seed":1}`},
}

// envelopeFile builds an envelope file by hand from its header fields, so
// the seed corpus can hold headers SaveEnvelopeFS never writes.
func envelopeFile(h envelope, payload []byte) []byte {
	line, _ := json.Marshal(h)
	return append(append(line, '\n'), payload...)
}

// legacyEnvelope renders state as schema 1 stored every envelope file: one
// indented JSON object carrying the compacted state under "state".
func legacyEnvelope(magic, fingerprint string, state []byte) []byte {
	var compact bytes.Buffer
	if err := json.Compact(&compact, state); err != nil {
		panic(err)
	}
	out, err := json.MarshalIndent(struct {
		Magic       string          `json:"magic"`
		Schema      int             `json:"schema"`
		Seed        uint64          `json:"seed"`
		Fingerprint string          `json:"fingerprint"`
		CRC         uint32          `json:"crc"`
		State       json.RawMessage `json:"state"`
	}{magic, 1, 0, fingerprint, crc32.ChecksumIEEE(compact.Bytes()), compact.Bytes()}, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// envelopeCase is one file for an envelope identity, with the reason a
// load of it must fail with ("" when it loads).
type envelopeCase struct {
	name, reason string
	data         []byte
}

// envelopeCases returns a valid envelope file for id and damaged variants
// of it: the seed corpus of FuzzLoadEnvelopeFS, and the table of
// TestEnvelopeCases.
func envelopeCases(id envelopeIdentity) []envelopeCase {
	p := []byte(id.payload)
	h := envelope{id.magic, id.schema, 0, id.fingerprint, crc32.ChecksumIEEE(p), int64(len(p))}
	good := envelopeFile(h, p)
	header := len(good) - len(p) // the header line and its newline
	flipped := bytes.Clone(good)
	flipped[header+len(p)/2] ^= 0x01
	spaced := append(bytes.Replace(good[:header-1], []byte(","), []byte(", "), 1), good[header-1:]...)
	with := func(edit func(*envelope)) []byte {
		bad := h
		edit(&bad)
		return envelopeFile(bad, p)
	}
	return []envelopeCase{
		{"valid", "", good},
		{"truncated", "corrupt", good[:len(good)-1]},
		{"half the payload", "corrupt", good[:header+len(p)/2]},
		{"header only", "corrupt", good[:header]},
		{"no newline", "corrupt", good[:header-1]},
		{"flipped payload byte", "corrupt", flipped},
		{"bytes beyond the payload", "corrupt", with(func(e *envelope) { e.Bytes++ })},
		{"bytes short of the payload", "corrupt", with(func(e *envelope) { e.Bytes-- })},
		{"oversized bytes", "corrupt", with(func(e *envelope) { e.Bytes = 1 << 62 })},
		{"negative bytes", "corrupt", with(func(e *envelope) { e.Bytes = -e.Bytes })},
		{"header not canonical", "corrupt", spaced},
		{"newer schema", "schema", with(func(e *envelope) { e.Schema++ })},
		{"schema-1 layout", "schema", legacyEnvelope(id.magic, id.fingerprint, p)},
		{"empty", "corrupt", nil},
		{"nonzero seed", "mismatch", with(func(e *envelope) { e.Seed = 7 })},
		{"other fingerprint", "mismatch", with(func(e *envelope) { e.Fingerprint += "0" })},
	}
}

// FuzzLoadEnvelopeFS feeds arbitrary file contents to the envelope parser
// under every identity in use and checks that:
//
//   - nothing panics, and every failure is an *EnvelopeError whose reason
//     is corrupt, schema or mismatch (the file exists and reads cleanly,
//     so missing, io and enospc cannot apply);
//   - any input that loads re-saves to the same bytes, or, if its payload
//     is not JSON, is refused by SaveEnvelopeFS with reason io.
//
// Plain `go test` replays the seed corpus; `make fuzz` searches for new
// inputs.
func FuzzLoadEnvelopeFS(f *testing.F) {
	for _, id := range envelopeIdentities {
		for _, c := range envelopeCases(id) {
			f.Add(c.data)
		}
	}
	notJSON := []byte("not json")
	id := envelopeIdentities[0]
	f.Add(envelopeFile(envelope{id.magic, id.schema, 0, id.fingerprint,
		crc32.ChecksumIEEE(notJSON), int64(len(notJSON))}, notJSON))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := NewMemFS()
		if err := in.WriteFile("e", data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, id := range envelopeIdentities {
			payload, err := LoadEnvelopeFS(in, "e", id.magic, id.schema, id.fingerprint)
			if err != nil {
				var ee *EnvelopeError
				if !errors.As(err, &ee) {
					t.Fatalf("%s: load failed with %T %v, want an *EnvelopeError", id.magic, err, err)
				}
				if ee.Reason != "corrupt" && ee.Reason != "schema" && ee.Reason != "mismatch" {
					t.Fatalf("%s: load failed with reason %q: %v", id.magic, ee.Reason, err)
				}
				continue
			}
			out := NewMemFS()
			err = SaveEnvelopeFS(out, "e", id.magic, id.schema, id.fingerprint, json.RawMessage(payload))
			if !json.Valid(payload) {
				var ee *EnvelopeError
				if !errors.As(err, &ee) || ee.Reason != "io" {
					t.Fatalf("%s: re-saving a non-JSON payload = %v, want an EnvelopeError with reason io", id.magic, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: re-save: %v", id.magic, err)
			}
			if again, _ := out.ReadFile("e"); !bytes.Equal(again, data) {
				t.Fatalf("%s: loaded file re-saves to different bytes:\n%q\n%q", id.magic, data, again)
			}
		}
	})
}

// TestEnvelopeCases pins the reason each seed-corpus file fails with, so
// the fuzzer's seeds keep exercising the checks they are named for.
func TestEnvelopeCases(t *testing.T) {
	for _, id := range envelopeIdentities {
		for _, c := range envelopeCases(id) {
			mem := NewMemFS()
			if err := mem.WriteFile("e", c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := LoadEnvelopeFS(mem, "e", id.magic, id.schema, id.fingerprint)
			if c.reason == "" {
				if err != nil || string(got) != id.payload {
					t.Fatalf("%s %s: load = (%q, %v), want the payload", id.magic, c.name, got, err)
				}
				continue
			}
			var ee *EnvelopeError
			if !errors.As(err, &ee) || ee.Reason != c.reason {
				t.Fatalf("%s %s: load error %v, want reason %s", id.magic, c.name, err, c.reason)
			}
		}
	}
}

// TestSaveEnvelopeRefusesNonJSON: a verbatim payload must be valid JSON,
// so a store never holds a document that is not, although a load does not
// parse the payload.
func TestSaveEnvelopeRefusesNonJSON(t *testing.T) {
	mem := NewMemFS()
	for _, bad := range []string{"", "not json", `{"a":1`, `{"a":1}{}`} {
		err := SaveEnvelopeFS(mem, "e", "m", 2, "fp", json.RawMessage(bad))
		var ee *EnvelopeError
		if !errors.As(err, &ee) || ee.Reason != "io" {
			t.Fatalf("save of %q = %v, want an EnvelopeError with reason io", bad, err)
		}
		if _, err := mem.Stat("e"); err == nil {
			t.Fatalf("save of %q wrote a file", bad)
		}
	}
}

// TestEnvelopeRoundTrip: a marshalled state saved to the real disk loads
// back to the same value, and every identity mismatch fails with a typed
// reason.
func TestEnvelopeRoundTrip(t *testing.T) {
	path := t.TempDir() + "/env.json"
	type payload struct {
		A int    `json:"a"`
		B string `json:"b"`
	}
	in := payload{A: 7, B: "x<y&z"}
	if err := SaveEnvelopeFS(nil, path, "test-magic", 2, "fp", in); err != nil {
		t.Fatalf("SaveEnvelopeFS: %v", err)
	}
	raw, err := LoadEnvelopeFS(nil, path, "test-magic", 2, "fp")
	if err != nil {
		t.Fatalf("LoadEnvelopeFS: %v", err)
	}
	var out payload
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}
	if out != in {
		t.Fatalf("round trip changed state: %+v != %+v", out, in)
	}

	cases := []struct {
		name, path, magic string
		schema            int
		fingerprint       string
		reason            string
	}{
		{"magic", path, "other", 2, "fp", "corrupt"},
		{"schema", path, "test-magic", 3, "fp", "schema"},
		{"fingerprint", path, "test-magic", 2, "other", "mismatch"},
		{"missing", path + ".nope", "test-magic", 2, "fp", "missing"},
	}
	for _, tc := range cases {
		_, err := LoadEnvelopeFS(nil, tc.path, tc.magic, tc.schema, tc.fingerprint)
		var ee *EnvelopeError
		if !errors.As(err, &ee) {
			t.Fatalf("%s: err = %v, want *EnvelopeError", tc.name, err)
		}
		if ee.Reason != tc.reason {
			t.Fatalf("%s: reason = %q, want %q", tc.name, ee.Reason, tc.reason)
		}
	}
}

// TestSaveEnvelopeFaults: every injected storage fault surfaces as a typed
// *EnvelopeError with the right reason — ENOSPC gets its own class, other
// write failures map to "io" — and none of them corrupt an existing file.
func TestSaveEnvelopeFaults(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   Plan
		reason string
	}{
		{"enospc", Plan{Seed: 1, ENOSPCGlob: "*.json.tmp"}, "enospc"},
		{"short write", Plan{Seed: 1, ShortWriteAtOp: 1}, "io"},
		{"torn rename", Plan{Seed: 1, RenameFailAtOp: 3}, "io"},
		{"sync failure", Plan{Seed: 1, SyncFailGlob: "*.tmp"}, "io"},
	} {
		mem := NewMemFS()
		// Seed a good file first, through a clean FS.
		if err := SaveEnvelopeFS(mem, "x.json", "m", 1, "fp", map[string]int{"a": 1}); err != nil {
			t.Fatalf("%s: seed save: %v", tc.name, err)
		}
		good, err := mem.ReadFile("x.json")
		if err != nil {
			t.Fatalf("%s: read seed: %v", tc.name, err)
		}
		fault := NewFault(mem, tc.plan)
		err = SaveEnvelopeFS(fault, "x.json", "m", 1, "fp", map[string]int{"a": 2})
		var ee *EnvelopeError
		if !errors.As(err, &ee) {
			t.Fatalf("%s: error %v is not an *EnvelopeError", tc.name, err)
		}
		if ee.Reason != tc.reason {
			t.Fatalf("%s: reason %q, want %q", tc.name, ee.Reason, tc.reason)
		}
		after, rerr := mem.ReadFile("x.json")
		if rerr != nil || string(after) != string(good) {
			t.Fatalf("%s: failed save corrupted the file (err %v)", tc.name, rerr)
		}
	}
}
