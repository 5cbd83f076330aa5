package soak

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/storage"
)

// envelopeIdentity is what a caller of LoadEnvelopeFS expects of a file.
type envelopeIdentity struct {
	magic       string
	schema      int
	seed        uint64
	fingerprint string
	payload     string // a payload of the kind the format carries
}

// envelopeIdentities are the envelope formats in use: the soak journal and
// the serve daemon's memoized documents and journaled jobs (magics and
// schema as internal/serve declares them).
var envelopeIdentities = []envelopeIdentity{
	{journalMagic, journalSchema, 7, "soak-fp", `{"next_unit":3,"cells":[{"n":1}]}`},
	{"protolat-serve-doc", 2, 0, "0123456789abcdef", "{\n  \"manifest\": {\n    \"seed\": 1\n  }\n}\n"},
	{"protolat-serve-job", 2, 0, "fedcba9876543210", `{"kind":"lint","seed":1}`},
}

// envelopeFile builds an envelope file by hand from its header fields, so
// the seed corpus can hold headers SaveEnvelopeFS never writes.
func envelopeFile(h envelope, payload []byte) []byte {
	line, _ := json.Marshal(h)
	return append(append(line, '\n'), payload...)
}

// legacyEnvelope renders state as schema 1 stored every envelope file: one
// indented JSON object carrying the compacted state under "state".
func legacyEnvelope(magic string, seed uint64, fingerprint string, state []byte) []byte {
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
	}{magic, 1, seed, fingerprint, crc32.ChecksumIEEE(compact.Bytes()), compact.Bytes()}, "", "  ")
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
	h := envelope{id.magic, id.schema, id.seed, id.fingerprint, crc32.ChecksumIEEE(p), int64(len(p))}
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
		{"schema-1 layout", "schema", legacyEnvelope(id.magic, id.seed, id.fingerprint, p)},
		{"empty", "corrupt", nil},
	}
}

// FuzzLoadEnvelopeFS feeds arbitrary file contents to the envelope parser
// under every identity in use and checks that:
//
//   - nothing panics, and every failure is a *JournalError whose reason is
//     corrupt, schema or mismatch (the file exists and reads cleanly, so
//     missing, io and enospc cannot apply);
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
	f.Add(envelopeFile(envelope{id.magic, id.schema, id.seed, id.fingerprint,
		crc32.ChecksumIEEE(notJSON), int64(len(notJSON))}, notJSON))

	f.Fuzz(func(t *testing.T, data []byte) {
		in := storage.NewMemFS()
		if err := in.WriteFile("e", data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, id := range envelopeIdentities {
			payload, err := LoadEnvelopeFS(in, "e", id.magic, id.schema, id.seed, id.fingerprint)
			if err != nil {
				var je *JournalError
				if !errors.As(err, &je) {
					t.Fatalf("%s: load failed with %T %v, want a *JournalError", id.magic, err, err)
				}
				if je.Reason != "corrupt" && je.Reason != "schema" && je.Reason != "mismatch" {
					t.Fatalf("%s: load failed with reason %q: %v", id.magic, je.Reason, err)
				}
				continue
			}
			out := storage.NewMemFS()
			err = SaveEnvelopeFS(out, "e", id.magic, id.schema, id.seed, id.fingerprint, json.RawMessage(payload))
			if !json.Valid(payload) {
				var je *JournalError
				if !errors.As(err, &je) || je.Reason != "io" {
					t.Fatalf("%s: re-saving a non-JSON payload = %v, want a JournalError with reason io", id.magic, err)
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
			mem := storage.NewMemFS()
			if err := mem.WriteFile("e", c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := LoadEnvelopeFS(mem, "e", id.magic, id.schema, id.seed, id.fingerprint)
			if c.reason == "" {
				if err != nil || string(got) != id.payload {
					t.Fatalf("%s %s: load = (%q, %v), want the payload", id.magic, c.name, got, err)
				}
				continue
			}
			var je *JournalError
			if !errors.As(err, &je) || je.Reason != c.reason {
				t.Fatalf("%s %s: load error %v, want reason %s", id.magic, c.name, err, c.reason)
			}
		}
	}
}

// TestSaveEnvelopeRefusesNonJSON: a verbatim payload must be valid JSON,
// so a store never holds a document that is not, although a load no
// longer parses the payload.
func TestSaveEnvelopeRefusesNonJSON(t *testing.T) {
	mem := storage.NewMemFS()
	for _, bad := range []string{"", "not json", `{"a":1`, `{"a":1}{}`} {
		err := SaveEnvelopeFS(mem, "e", "m", 2, 0, "fp", json.RawMessage(bad))
		var je *JournalError
		if !errors.As(err, &je) || je.Reason != "io" {
			t.Fatalf("save of %q = %v, want a JournalError with reason io", bad, err)
		}
		if _, err := mem.Stat("e"); err == nil {
			t.Fatalf("save of %q wrote a file", bad)
		}
	}
}
