package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"syscall"
)

// EnvelopeError is the typed failure for every way an envelope file can be
// unusable: missing, truncated, corrupt, written for another identity or
// in a layout this binary does not speak, or unwritable because the disk
// is full. Callers distinguish cases by Reason; errors.As recovers the
// struct.
type EnvelopeError struct {
	Path   string
	Reason string // "missing", "corrupt", "schema", "mismatch", "io", "enospc"
	Err    error  // underlying error, when one exists
}

// Error renders the failure with its path and reason.
func (e *EnvelopeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("store file %s: %s: %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("store file %s: %s", e.Path, e.Reason)
}

// Unwrap exposes the underlying error.
func (e *EnvelopeError) Unwrap() error { return e.Err }

// writeError classifies a failed durable write: a full disk gets its own
// reason ("enospc") so callers can tell resource exhaustion — retryable,
// operator-actionable — from arbitrary I/O failure.
func writeError(path string, err error) *EnvelopeError {
	if errors.Is(err, syscall.ENOSPC) {
		return &EnvelopeError{Path: path, Reason: "enospc", Err: err}
	}
	return &EnvelopeError{Path: path, Reason: "io", Err: err}
}

// envelope is the header of the on-disk format every crash-safe store file
// uses (the serve daemon's memoized documents and journaled jobs). A file
// is this header as one line of JSON, a newline, then the payload
// verbatim: Bytes long, with CRC its CRC-32 (IEEE). A load parses only the
// header line, so it returns the exact bytes that were saved without a
// JSON pass over them. Seed is always written as 0; the field keeps the
// header, and so every stored file, byte-identical to the layout's first
// writers.
type envelope struct {
	Magic       string `json:"magic"`
	Schema      int    `json:"schema"`
	Seed        uint64 `json:"seed"`
	Fingerprint string `json:"fingerprint"`
	CRC         uint32 `json:"crc"`
	Bytes       int64  `json:"bytes"`
}

// SaveEnvelopeFS stores state atomically: marshal, CRC, write to a temp
// file in the same directory, fsync it, rename over the target, fsync the
// directory. A kill -9 at any instant therefore leaves either the previous
// file or the new one, never a torn write. magic and schema identify the
// file format; fingerprint identifies the content's owner, and
// LoadEnvelopeFS rejects a file whose identity does not match. A
// json.RawMessage state is stored verbatim, so a load returns exactly its
// bytes; it must be valid JSON ("io" if not), which keeps every payload
// JSON although a load does not parse it. All file operations go through
// fsys so the fault layer can inject failures and enumerate crash points.
func SaveEnvelopeFS(fsys FS, path, magic string, schema int, fingerprint string, state any) error {
	fsys = Default(fsys)
	payload, verbatim := state.(json.RawMessage)
	if !verbatim {
		var err error
		if payload, err = json.Marshal(state); err != nil {
			return &EnvelopeError{Path: path, Reason: "io", Err: err}
		}
	} else if !json.Valid(payload) {
		return &EnvelopeError{Path: path, Reason: "io", Err: errors.New("payload is not valid JSON")}
	}
	// Marshalling this struct cannot fail.
	header, _ := json.Marshal(envelope{magic, schema, 0, fingerprint, crc32.ChecksumIEEE(payload), int64(len(payload))})
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

// LoadEnvelopeFS reads and validates an envelope written by SaveEnvelopeFS,
// returning the payload it carries: exactly the bytes that were saved and
// that the CRC was computed over. It parses the header line only. Every
// failure mode maps to an *EnvelopeError: "missing" when the file does not
// exist, "corrupt" for torn or tampered bytes (no header line, a header
// that is not JSON or not in the form SaveEnvelopeFS writes, wrong magic,
// a payload whose length or CRC disagrees with the header), "schema" for a
// version the caller does not speak, and "mismatch" when the header's seed
// is not 0 or its fingerprint is not the expected one.
func LoadEnvelopeFS(fsys FS, path, magic string, schema int, fingerprint string) (json.RawMessage, error) {
	fsys = Default(fsys)
	data, err := fsys.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, &EnvelopeError{Path: path, Reason: "missing", Err: err}
		}
		return nil, &EnvelopeError{Path: path, Reason: "io", Err: err}
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, &EnvelopeError{Path: path, Reason: "corrupt", Err: errors.New("no header line")}
	}
	line, payload := data[:nl], data[nl+1:]
	var h envelope
	if err := json.Unmarshal(line, &h); err != nil {
		// Schema 1 wrote the whole file as one indented JSON object, whose
		// first line is "{" alone: read its magic and schema from the
		// object, so an old file fails as a version, not as corruption.
		if string(line) != "{" || json.Unmarshal(data, &h) != nil {
			return nil, &EnvelopeError{Path: path, Reason: "corrupt", Err: err}
		}
	}
	if h.Magic != magic {
		return nil, &EnvelopeError{Path: path, Reason: "corrupt",
			Err: fmt.Errorf("magic %q", h.Magic)}
	}
	if h.Schema != schema {
		return nil, &EnvelopeError{Path: path, Reason: "schema",
			Err: fmt.Errorf("file schema %d, this binary speaks %d", h.Schema, schema)}
	}
	// Only the exact header SaveEnvelopeFS writes is accepted, so every
	// file that loads re-saves to the same bytes.
	if canon, _ := json.Marshal(&h); !bytes.Equal(line, canon) {
		return nil, &EnvelopeError{Path: path, Reason: "corrupt", Err: errors.New("header is not in canonical form")}
	}
	if h.Seed != 0 || h.Fingerprint != fingerprint {
		return nil, &EnvelopeError{Path: path, Reason: "mismatch",
			Err: fmt.Errorf("file was written for another identity (seed %d, fingerprint %s)", h.Seed, h.Fingerprint)}
	}
	if h.Bytes != int64(len(payload)) {
		return nil, &EnvelopeError{Path: path, Reason: "corrupt",
			Err: fmt.Errorf("payload is %d bytes, header claims %d", len(payload), h.Bytes)}
	}
	if got := crc32.ChecksumIEEE(payload); got != h.CRC {
		return nil, &EnvelopeError{Path: path, Reason: "corrupt",
			Err: fmt.Errorf("payload crc %08x, header claims %08x", got, h.CRC)}
	}
	return payload, nil
}
