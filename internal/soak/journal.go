package soak

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"

	"repro/internal/storage"
)

// journalMagic identifies a soak journal file.
const journalMagic = "protolat-soak-journal"

// journalSchema versions the journal layout; a mismatch is a typed error,
// not a silent misread. Schema 2 is the header-line layout of envelope.
const journalSchema = 2

// JournalError is the typed failure for every way a checkpoint journal (or
// any other envelope-based store file — see SaveEnvelope) can be unusable:
// missing, truncated, corrupt, written by an incompatible configuration, or
// unwritable because the disk is full. Callers distinguish cases by Reason;
// errors.As recovers the struct.
type JournalError struct {
	Path   string
	Reason string // "missing", "corrupt", "schema", "mismatch", "io", "enospc"
	Err    error  // underlying error, when one exists
}

// Error renders the failure with its path and reason.
func (e *JournalError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("soak journal %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("soak journal %s: %s", e.Path, e.Reason)
}

// Unwrap exposes the underlying error.
func (e *JournalError) Unwrap() error { return e.Err }

// writeError classifies a failed durable write: a full disk gets its own
// reason ("enospc") so callers can tell resource exhaustion — retryable,
// operator-actionable — from arbitrary I/O failure.
func writeError(path string, err error) *JournalError {
	if errors.Is(err, syscall.ENOSPC) {
		return &JournalError{Path: path, Reason: "enospc", Err: err}
	}
	return &JournalError{Path: path, Reason: "io", Err: err}
}

// envelope is the header of the on-disk format shared by the soak journal
// and every other crash-safe store built on it (the serve daemon's result
// store and job queue). A file is this header as one line of JSON, a
// newline, then the payload verbatim: Bytes long, with CRC its CRC-32
// (IEEE). A load parses only the header line, so it returns the exact
// bytes that were saved without a JSON pass over them.
type envelope struct {
	Magic       string `json:"magic"`
	Schema      int    `json:"schema"`
	Seed        uint64 `json:"seed"`
	Fingerprint string `json:"fingerprint"`
	CRC         uint32 `json:"crc"`
	Bytes       int64  `json:"bytes"`
}

// SaveEnvelope checkpoints state atomically under the journal discipline —
// see SaveEnvelopeFS, which this wraps with the real filesystem.
func SaveEnvelope(path, magic string, schema int, seed uint64, fingerprint string, state any) error {
	return SaveEnvelopeFS(storage.Disk, path, magic, schema, seed, fingerprint, state)
}

// SaveEnvelopeFS checkpoints state atomically under the journal discipline:
// marshal, CRC, write to a temp file in the same directory, fsync it, rename
// over the target, fsync the directory. A kill -9 at any instant therefore
// leaves either the previous file or the new one, never a torn write. magic
// and schema identify the file format; seed and fingerprint identify the
// configuration that wrote it, and LoadEnvelope rejects a file whose
// identity does not match. A json.RawMessage state is stored verbatim, so
// a load returns exactly its bytes; it must be valid JSON ("io" if not),
// which keeps every payload JSON although a load no longer parses it.
// Exported so other crash-safe stores (the serve daemon's memoized result
// store and journaled job queue) reuse the exact same discipline and typed
// failure modes instead of reinventing them. All file operations go
// through fsys so the storage fault layer can inject failures and
// enumerate crash points.
func SaveEnvelopeFS(fsys storage.FS, path, magic string, schema int, seed uint64, fingerprint string, state any) error {
	fsys = storage.Default(fsys)
	payload, verbatim := state.(json.RawMessage)
	if !verbatim {
		var err error
		if payload, err = json.Marshal(state); err != nil {
			return &JournalError{Path: path, Reason: "io", Err: err}
		}
	} else if !json.Valid(payload) {
		return &JournalError{Path: path, Reason: "io", Err: errors.New("payload is not valid JSON")}
	}
	// Marshalling this struct cannot fail.
	header, _ := json.Marshal(envelope{magic, schema, seed, fingerprint, crc32.ChecksumIEEE(payload), int64(len(payload))})
	out := append(append(append(make([]byte, 0, len(header)+1+len(payload)), header...), '\n'), payload...)
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, out, 0o644); err != nil {
		return writeError(path, err)
	}
	if err := fsys.Sync(tmp); err != nil {
		return writeError(path, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return writeError(path, err)
	}
	if dir := filepath.Dir(path); dir != "" {
		if err := fsys.Sync(dir); err != nil {
			return writeError(path, err)
		}
	}
	return nil
}

// LoadEnvelope reads and validates an envelope written by SaveEnvelope —
// see LoadEnvelopeFS, which this wraps with the real filesystem.
func LoadEnvelope(path, magic string, schema int, seed uint64, fingerprint string) (json.RawMessage, error) {
	return LoadEnvelopeFS(storage.Disk, path, magic, schema, seed, fingerprint)
}

// LoadEnvelopeFS reads and validates an envelope written by SaveEnvelopeFS,
// returning the payload it carries: exactly the bytes that were saved and
// that the CRC was computed over. It parses the header line only. Every
// failure mode maps to a *JournalError: "missing" when the file does not
// exist, "corrupt" for torn or tampered bytes (no header line, a header
// that is not JSON or not in the form SaveEnvelopeFS writes, wrong magic,
// a payload whose length or CRC disagrees with the header), "schema" for a
// version the caller does not speak, and "mismatch" when seed or
// fingerprint disagree with the expected identity.
func LoadEnvelopeFS(fsys storage.FS, path, magic string, schema int, seed uint64, fingerprint string) (json.RawMessage, error) {
	fsys = storage.Default(fsys)
	data, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &JournalError{Path: path, Reason: "missing", Err: err}
		}
		return nil, &JournalError{Path: path, Reason: "io", Err: err}
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, &JournalError{Path: path, Reason: "corrupt", Err: errors.New("no header line")}
	}
	line, payload := data[:nl], data[nl+1:]
	var h envelope
	if err := json.Unmarshal(line, &h); err != nil {
		// Schema 1 wrote the whole file as one indented JSON object, whose
		// first line is "{" alone: read its magic and schema from the
		// object, so an old file fails as a version, not as corruption.
		if string(line) != "{" || json.Unmarshal(data, &h) != nil {
			return nil, &JournalError{Path: path, Reason: "corrupt", Err: err}
		}
	}
	if h.Magic != magic {
		return nil, &JournalError{Path: path, Reason: "corrupt",
			Err: fmt.Errorf("magic %q", h.Magic)}
	}
	if h.Schema != schema {
		return nil, &JournalError{Path: path, Reason: "schema",
			Err: fmt.Errorf("file schema %d, this binary speaks %d", h.Schema, schema)}
	}
	// Only the exact header SaveEnvelopeFS writes is accepted, so every
	// file that loads re-saves to the same bytes.
	if canon, _ := json.Marshal(&h); !bytes.Equal(line, canon) {
		return nil, &JournalError{Path: path, Reason: "corrupt", Err: errors.New("header is not in canonical form")}
	}
	if h.Seed != seed || h.Fingerprint != fingerprint {
		return nil, &JournalError{Path: path, Reason: "mismatch",
			Err: fmt.Errorf("file was written under a different configuration (seed %d, fingerprint %s)", h.Seed, h.Fingerprint)}
	}
	if h.Bytes != int64(len(payload)) {
		return nil, &JournalError{Path: path, Reason: "corrupt",
			Err: fmt.Errorf("payload is %d bytes, header claims %d", len(payload), h.Bytes)}
	}
	if got := crc32.ChecksumIEEE(payload); got != h.CRC {
		return nil, &JournalError{Path: path, Reason: "corrupt",
			Err: fmt.Errorf("payload crc %08x, header claims %08x", got, h.CRC)}
	}
	return payload, nil
}

// saveJournal checkpoints the soak state atomically (see SaveEnvelopeFS). A
// kill between any two soak chunks leaves either the previous journal or
// the new one, never a torn file.
func saveJournal(path string, cfg Config, st *state) error {
	return SaveEnvelopeFS(cfg.FS, path, journalMagic, journalSchema, cfg.Seed, cfg.fingerprint(), st)
}

// loadJournal reads and validates a checkpoint, returning the state it
// carries. Every failure mode maps to a JournalError.
func loadJournal(path string, cfg Config) (*state, error) {
	raw, err := LoadEnvelopeFS(cfg.FS, path, journalMagic, journalSchema, cfg.Seed, cfg.fingerprint())
	if err != nil {
		return nil, err
	}
	var st state
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, &JournalError{Path: path, Reason: "corrupt", Err: err}
	}
	if st.NextUnit < 0 || st.NextUnit > cfg.totalUnits() || len(st.Cells) != cfg.cellCount() {
		return nil, &JournalError{Path: path, Reason: "mismatch",
			Err: fmt.Errorf("state shape (unit %d, %d cells) does not fit the schedule (%d units, %d cells)",
				st.NextUnit, len(st.Cells), cfg.totalUnits(), cfg.cellCount())}
	}
	return &st, nil
}

// ensureDir creates the journal's directory if needed.
func ensureDir(fsys storage.FS, path string) error {
	dir := filepath.Dir(path)
	if dir == "." || dir == "" {
		return nil
	}
	return storage.Default(fsys).MkdirAll(dir, 0o755)
}
