// Package storage is the injectable filesystem boundary beneath every
// durable write in the system, and the crash-safe envelope file format
// those writes use: the serve daemon's memoized result store and journaled
// job queue (both envelopes, see SaveEnvelopeFS) and the store's eviction
// policy all perform their file operations through the FS interface
// instead of calling the os package directly.
//
// Two implementations exist. Disk (a DiskFS) is the real thing: plain os
// calls plus an explicit Sync operation, so the tmp+write+sync+rename+sync
// envelope discipline is durable against power loss, not just process
// death. MemFS is a deterministic in-memory filesystem for tests; wrapped
// in a Fault it becomes an adversary that injects seeded short writes,
// ENOSPC, torn renames, and fsync failures — and, for the crash-point
// enumeration harness (Enumerate), simulates a kill -9 after exactly the
// Nth mutating operation so every window a crash could hit is tested, not
// just the hand-picked ones.
//
// The design rule the fault model enforces: a mutating FS operation either
// fully applies or fully fails — except WriteFile, which may tear (persist
// a prefix), and Rename under a crash, which lands on either side. Crash
// recovery therefore only ever observes pre-op or post-op state for any
// file maintained under the envelope discipline; the enumeration tests in
// internal/serve assert exactly that.
package storage

import (
	"io/fs"
	"os"
	"path/filepath"
)

// FS is the filesystem abstraction every durable write goes through. The
// first five methods mutate; ReadFile, Stat and Glob observe. Injecting a
// Fault implementation turns any caller's storage discipline into a
// testable claim.
type FS interface {
	// ReadFile returns the file's full contents.
	ReadFile(path string) ([]byte, error)
	// WriteFile replaces the file's contents (creating it if needed).
	// This is the only operation the fault model allows to tear: a
	// crashed or faulted write may leave a prefix of data behind.
	WriteFile(path string, data []byte, perm os.FileMode) error
	// Sync durably flushes a file (or directory) to stable storage.
	Sync(path string) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// Stat reports file metadata.
	Stat(path string) (fs.FileInfo, error)
	// Glob lists the files matching a filepath.Match pattern, sorted.
	Glob(pattern string) ([]string, error)
}

// DiskFS is the real filesystem: the os package plus explicit fsync.
type DiskFS struct{}

// Disk is the process-wide real filesystem instance; callers that take an
// FS default to it when handed nil.
var Disk FS = DiskFS{}

// Default returns fsys, or the real filesystem when fsys is nil — the
// one-line idiom every FS-threaded entry point uses so existing callers
// keep their signatures.
func Default(fsys FS) FS {
	if fsys == nil {
		return Disk
	}
	return fsys
}

// ReadFile returns the file's full contents.
func (DiskFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// WriteFile replaces the file's contents.
func (DiskFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}

// Sync opens the path read-only and flushes it to stable storage. It works
// on directories too (the envelope discipline syncs the parent directory
// after a rename so the new directory entry is durable).
func (DiskFS) Sync(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Rename atomically replaces newpath with oldpath.
func (DiskFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove deletes a file.
func (DiskFS) Remove(path string) error { return os.Remove(path) }

// MkdirAll creates a directory and any missing parents.
func (DiskFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Stat reports file metadata.
func (DiskFS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

// Glob lists the files matching pattern, sorted (filepath.Glob order).
func (DiskFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }
