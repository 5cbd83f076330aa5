package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"

	iofs "io/fs"
)

// ErrCrashed is the sentinel every operation returns once a Fault's crash
// point has been reached: the simulated process is dead, nothing else
// happens. errors.Is recovers it through the *FaultError wrapper.
var ErrCrashed = errors.New("storage: simulated crash")

// FaultError is the typed failure for every injected fault, naming the
// operation, path, the 1-based mutating-op index it fired at, and the
// fault kind ("enospc", "short-write", "torn-rename", "sync", "crash").
// It unwraps to the canonical cause (syscall.ENOSPC for "enospc",
// ErrCrashed for "crash"), so errors.Is classification keeps working
// through every wrapper above the storage layer.
type FaultError struct {
	Op   string // FS method name: "write", "rename", "remove", "sync", "mkdir"
	Path string
	N    int    // 1-based mutating-op index at which the fault fired
	Kind string // "enospc", "short-write", "torn-rename", "sync", "crash"
	Err  error  // canonical cause, when one exists
}

// Error renders the failure with its op, path, index and kind.
func (e *FaultError) Error() string {
	return fmt.Sprintf("storage fault: %s %s (op %d): %s", e.Op, e.Path, e.N, e.Kind)
}

// Unwrap exposes the canonical cause.
func (e *FaultError) Unwrap() error { return e.Err }

// Plan is a deterministic fault schedule for one Fault instance. The zero
// Plan injects nothing and just counts operations. Every trigger is
// expressed in mutating-op indices (1-based, counting WriteFile, Sync,
// Rename, Remove and MkdirAll in call order) or as a path glob, never as
// probabilities over wall-clock state, so a given workload hits exactly
// the same faults on every run.
type Plan struct {
	// Seed drives the torn-write prefix lengths and the torn-rename
	// apply-or-not coin at the crash point.
	Seed uint64

	// CrashAtOp, when positive, simulates a kill -9 at the Nth mutating
	// operation: ops 1..N-1 apply fully, op N applies its torn partial
	// effect (a seeded prefix for WriteFile, an apply-or-not coin for
	// Rename and Remove, nothing for Sync), and every later operation —
	// mutating or not — fails with ErrCrashed and no effect.
	CrashAtOp int

	// ENOSPCAtOp, when positive, makes every WriteFile from the Nth
	// mutating op on fail with ENOSPC (a seeded prefix is persisted,
	// as a real filesystem running out of space mid-write would).
	ENOSPCAtOp int

	// ENOSPCGlob, when set, makes WriteFile to any matching path fail
	// with ENOSPC — the handle the black-box fsfault smoke test uses to
	// starve one file class (e.g. "*.doc.json") without counting ops.
	ENOSPCGlob string

	// ShortWriteAtOp, when positive, tears the Nth mutating op if it is a
	// WriteFile: a seeded prefix is persisted and a "short-write"
	// FaultError returned.
	ShortWriteAtOp int

	// RenameFailAtOp, when positive, fails the Nth mutating op if it is a
	// Rename, with no effect — the torn-rename case where the new file
	// never appears but the caller sees an error.
	RenameFailAtOp int

	// SyncFailGlob, when set, makes Sync on any matching path fail — the
	// fsync-failure case (the data may well be durable; the caller must
	// treat the write as failed anyway).
	SyncFailGlob string
}

// Fault wraps an inner FS with the deterministic fault schedule of a Plan,
// counting mutating operations as it goes. It is the adversary every
// crash-point and degraded-mode test in the repo injects behind the
// envelope and the serve store.
type Fault struct {
	inner FS
	plan  Plan

	mu      sync.Mutex
	ops     int  // mutating operations observed so far
	crashed bool // crash point passed; everything fails from here on
}

// NewFault wraps inner with plan's fault schedule.
func NewFault(inner FS, plan Plan) *Fault {
	return &Fault{inner: inner, plan: plan}
}

// Ops reports how many mutating operations the workload has performed —
// the denominator of the crash-point enumeration.
func (f *Fault) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the crash point has been reached.
func (f *Fault) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// mix is a splitmix64 step: a cheap, deterministic per-op hash of the plan
// seed and the op index, used for torn-write prefix lengths and the
// torn-rename coin.
func mix(seed uint64, n int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*uint64(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// tornLen is the seeded prefix length a torn write persists: anywhere from
// 0 to len-1 bytes, never the full write (a full write then an error is
// the sync-failure case, modelled separately).
func tornLen(seed uint64, n, full int) int {
	if full == 0 {
		return 0
	}
	return int(mix(seed, n) % uint64(full))
}

// begin gates one mutating operation: it bumps the op counter and reports
// (index, crashNow). Once the crash point has fired, every subsequent call
// — and every observing operation — fails with ErrCrashed.
func (f *Fault) begin() (n int, crashNow, dead bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return f.ops, false, true
	}
	f.ops++
	if f.plan.CrashAtOp > 0 && f.ops == f.plan.CrashAtOp {
		f.crashed = true
		return f.ops, true, false
	}
	return f.ops, false, false
}

// observe gates a non-mutating operation, which only the crash can fail.
func (f *Fault) observe(op, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return &FaultError{Op: op, Path: path, N: f.ops, Kind: "crash", Err: ErrCrashed}
	}
	return nil
}

// matches reports whether path matches the glob (base name or full path).
// FromEnv rejects a malformed glob, so Match's error is dropped here.
func matches(glob, path string) bool {
	if glob == "" {
		return false
	}
	if ok, _ := filepath.Match(glob, path); ok {
		return true
	}
	ok, _ := filepath.Match(glob, filepath.Base(path))
	return ok
}

// ReadFile observes the file; it only fails after the crash point.
func (f *Fault) ReadFile(path string) ([]byte, error) {
	if err := f.observe("read", path); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

// WriteFile applies the plan's write faults: ENOSPC (by op index or glob)
// and short writes persist a seeded prefix and fail; a crash at this op
// persists a seeded prefix and kills the filesystem.
func (f *Fault) WriteFile(path string, data []byte, perm os.FileMode) error {
	n, crashNow, dead := f.begin()
	if dead {
		return &FaultError{Op: "write", Path: path, N: n, Kind: "crash", Err: ErrCrashed}
	}
	if crashNow {
		f.inner.WriteFile(path, data[:tornLen(f.plan.Seed, n, len(data))], perm)
		return &FaultError{Op: "write", Path: path, N: n, Kind: "crash", Err: ErrCrashed}
	}
	if (f.plan.ENOSPCAtOp > 0 && n >= f.plan.ENOSPCAtOp) || matches(f.plan.ENOSPCGlob, path) {
		f.inner.WriteFile(path, data[:tornLen(f.plan.Seed, n, len(data))], perm)
		return &FaultError{Op: "write", Path: path, N: n, Kind: "enospc", Err: syscall.ENOSPC}
	}
	if f.plan.ShortWriteAtOp == n {
		f.inner.WriteFile(path, data[:tornLen(f.plan.Seed, n, len(data))], perm)
		return &FaultError{Op: "write", Path: path, N: n, Kind: "short-write", Err: syscall.EIO}
	}
	return f.inner.WriteFile(path, data, perm)
}

// Sync applies the plan's fsync faults and crash gating.
func (f *Fault) Sync(path string) error {
	n, crashNow, dead := f.begin()
	if dead || crashNow {
		// A crash at a Sync has no partial effect: the data either made
		// it out earlier or it did not (the torn write models that).
		return &FaultError{Op: "sync", Path: path, N: n, Kind: "crash", Err: ErrCrashed}
	}
	if matches(f.plan.SyncFailGlob, path) {
		return &FaultError{Op: "sync", Path: path, N: n, Kind: "sync", Err: syscall.EIO}
	}
	return f.inner.Sync(path)
}

// Rename applies the plan's torn-rename faults: at the crash point a
// seeded coin decides whether the rename landed before the process died;
// at RenameFailAtOp the rename fails cleanly with no effect.
func (f *Fault) Rename(oldpath, newpath string) error {
	n, crashNow, dead := f.begin()
	if dead {
		return &FaultError{Op: "rename", Path: newpath, N: n, Kind: "crash", Err: ErrCrashed}
	}
	if crashNow {
		if mix(f.plan.Seed, n)&1 == 1 {
			f.inner.Rename(oldpath, newpath)
		}
		return &FaultError{Op: "rename", Path: newpath, N: n, Kind: "crash", Err: ErrCrashed}
	}
	if f.plan.RenameFailAtOp == n {
		return &FaultError{Op: "rename", Path: newpath, N: n, Kind: "torn-rename", Err: syscall.EIO}
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove applies crash gating; at the crash point a seeded coin decides
// whether the removal landed.
func (f *Fault) Remove(path string) error {
	n, crashNow, dead := f.begin()
	if dead {
		return &FaultError{Op: "remove", Path: path, N: n, Kind: "crash", Err: ErrCrashed}
	}
	if crashNow {
		if mix(f.plan.Seed, n)&1 == 1 {
			f.inner.Remove(path)
		}
		return &FaultError{Op: "remove", Path: path, N: n, Kind: "crash", Err: ErrCrashed}
	}
	return f.inner.Remove(path)
}

// MkdirAll applies crash gating (directory creation is all-or-nothing).
func (f *Fault) MkdirAll(path string, perm os.FileMode) error {
	n, crashNow, dead := f.begin()
	if dead || crashNow {
		return &FaultError{Op: "mkdir", Path: path, N: n, Kind: "crash", Err: ErrCrashed}
	}
	return f.inner.MkdirAll(path, perm)
}

// Stat observes the file; it only fails after the crash point.
func (f *Fault) Stat(path string) (iofs.FileInfo, error) {
	if err := f.observe("stat", path); err != nil {
		return nil, err
	}
	return f.inner.Stat(path)
}

// Glob observes the directory; it only fails after the crash point.
func (f *Fault) Glob(pattern string) ([]string, error) {
	if err := f.observe("glob", pattern); err != nil {
		return nil, err
	}
	return f.inner.Glob(pattern)
}

// CountOps runs workload once against a clone of base with a fault-free
// counting layer and reports how many mutating operations it performs —
// the denominator the crash-point enumeration iterates over. The clone is
// returned too: it holds the workload's post state.
func CountOps(base *MemFS, workload func(FS) error) (int, *MemFS, error) {
	post := base.Clone()
	f := NewFault(post, Plan{})
	err := workload(f)
	return f.Ops(), post, err
}

// Enumerate is the crash-point enumeration harness: it counts the mutating
// operations workload performs, then replays it once per operation index k
// — each time from an identical clone of base, with a simulated kill -9 at
// op k (seeded torn partial effects included) — and calls check(k, crashed)
// with the filesystem the crash left behind. check typically runs the
// caller's recovery path and asserts the recovered state is byte-identical
// to either the pre-op or the post-op state — no third outcome. Enumerate
// returns the op count and the first check error.
func Enumerate(base *MemFS, seed uint64, workload func(FS) error, check func(k int, crashed *MemFS) error) (int, error) {
	n, _, err := CountOps(base, workload)
	if err != nil {
		return n, fmt.Errorf("storage: enumeration workload failed undisturbed: %w", err)
	}
	for k := 1; k <= n; k++ {
		crashed := base.Clone()
		f := NewFault(crashed, Plan{Seed: seed, CrashAtOp: k})
		werr := workload(f)
		if werr == nil {
			// A nil return is legal only when the crash landed on a
			// deliberately best-effort trailing operation (cleanup whose
			// error the caller swallows by design); the crash must still
			// have fired.
			if !f.Crashed() {
				return n, fmt.Errorf("storage: crash at op %d/%d never fired", k, n)
			}
		} else if !errors.Is(werr, ErrCrashed) {
			var fe *FaultError
			if !errors.As(werr, &fe) {
				return n, fmt.Errorf("storage: crash at op %d/%d surfaced an untyped error: %w", k, n, werr)
			}
		}
		if err := check(k, crashed); err != nil {
			return n, fmt.Errorf("crash at op %d/%d: %w", k, n, err)
		}
	}
	return n, nil
}

// FromEnv builds the process filesystem from a PROTOLAT_FSFAULT-style
// spec: empty returns the real disk; otherwise a comma-separated list of
// fault clauses wraps the disk in a Fault. Supported clauses:
//
//	enospc=<glob>      WriteFile to matching paths fails with ENOSPC
//	enospc-at=<n>      WriteFile fails with ENOSPC from the nth mutating op
//	syncfail=<glob>    Sync on matching paths fails
//	crash-at=<n>       simulated kill -9 at the nth mutating op
//	seed=<n>           seed for torn partial effects (default 1)
//
// Counts are positive decimal integers, seeds unsigned ones, and globs
// non-empty filepath.Match patterns; anything else is an error, so a
// typo cannot leave a fault that never fires.
//
// This is the seam the black-box fsfault smoke test uses to starve the
// real daemon's store without mocking anything inside the binary.
func FromEnv(spec string) (FS, error) {
	if spec == "" {
		return Disk, nil
	}
	plan := Plan{Seed: 1}
	for _, clause := range strings.Split(spec, ",") {
		if clause == "" {
			continue
		}
		k, v, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("storage: bad fault clause %q (want key=value)", clause)
		}
		var err error
		switch k {
		case "enospc":
			plan.ENOSPCGlob, err = envGlob(k, v)
		case "syncfail":
			plan.SyncFailGlob, err = envGlob(k, v)
		case "enospc-at":
			plan.ENOSPCAtOp, err = envCount(k, v)
		case "crash-at":
			plan.CrashAtOp, err = envCount(k, v)
		case "seed":
			if plan.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
				err = fmt.Errorf("storage: bad seed %q", v)
			}
		default:
			return nil, fmt.Errorf("storage: unknown fault clause %q", k)
		}
		if err != nil {
			return nil, err
		}
	}
	return NewFault(Disk, plan), nil
}

// envCount parses a FromEnv op index: a positive decimal integer.
func envCount(k, v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("storage: bad %s %q", k, v)
	}
	return n, nil
}

// envGlob checks a FromEnv path glob once, so matches can ignore
// filepath.Match's error.
func envGlob(k, v string) (string, error) {
	if _, err := filepath.Match(v, ""); v == "" || err != nil {
		return "", fmt.Errorf("storage: bad %s glob %q", k, v)
	}
	return v, nil
}
