package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// TestMemFSMatchesDisk runs the same operation script against MemFS and a
// DiskFS rooted in a temp dir and requires identical observable outcomes —
// the license to use MemFS as the crash-enumeration stand-in for the real
// filesystem.
func TestMemFSMatchesDisk(t *testing.T) {
	dir := t.TempDir()
	disk := Disk
	mem := NewMemFS()
	if err := mem.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("mem mkdir: %v", err)
	}

	type step struct {
		name string
		run  func(FS) error
	}
	p := func(name string) string { return filepath.Join(dir, name) }
	steps := []step{
		{"write a", func(f FS) error { return f.WriteFile(p("a"), []byte("alpha"), 0o644) }},
		{"sync a", func(f FS) error { return f.Sync(p("a")) }},
		{"rename a->b", func(f FS) error { return f.Rename(p("a"), p("b")) }},
		{"write b.tmp", func(f FS) error { return f.WriteFile(p("b.tmp"), []byte("torn"), 0o644) }},
		{"mkdir sub", func(f FS) error { return f.MkdirAll(p("sub"), 0o755) }},
		{"write sub/c", func(f FS) error { return f.WriteFile(p("sub/c"), []byte("gamma"), 0o644) }},
		{"remove b.tmp", func(f FS) error { return f.Remove(p("b.tmp")) }},
		{"sync dir", func(f FS) error { return f.Sync(dir) }},
	}
	for _, s := range steps {
		de, me := s.run(disk), s.run(mem)
		if (de == nil) != (me == nil) {
			t.Fatalf("%s: disk err %v, mem err %v", s.name, de, me)
		}
	}

	// Same contents, same stat sizes, same glob view.
	for _, name := range []string{"b", "sub/c"} {
		db, err := disk.ReadFile(p(name))
		if err != nil {
			t.Fatalf("disk read %s: %v", name, err)
		}
		mb, err := mem.ReadFile(p(name))
		if err != nil {
			t.Fatalf("mem read %s: %v", name, err)
		}
		if !bytes.Equal(db, mb) {
			t.Fatalf("%s: disk %q, mem %q", name, db, mb)
		}
		di, _ := disk.Stat(p(name))
		mi, err := mem.Stat(p(name))
		if err != nil || di.Size() != mi.Size() {
			t.Fatalf("%s: stat sizes disk %d mem %d (err %v)", name, di.Size(), mi.Size(), err)
		}
	}
	dg, _ := disk.Glob(filepath.Join(dir, "*"))
	mg, _ := mem.Glob(filepath.Join(dir, "*"))
	// Disk sees the sub directory in the glob; MemFS globs files only, so
	// compare the file subset.
	dfiles := map[string]bool{}
	for _, g := range dg {
		if fi, err := disk.Stat(g); err == nil && !fi.IsDir() {
			dfiles[g] = true
		}
	}
	if len(dfiles) != len(mg) {
		t.Fatalf("glob views differ: disk files %v, mem %v", dfiles, mg)
	}
	for _, g := range mg {
		if !dfiles[g] {
			t.Fatalf("mem glob has %s, disk does not", g)
		}
	}

	// Error classification matches the os package's.
	_, de := disk.ReadFile(p("nope"))
	_, me := mem.ReadFile(p("nope"))
	if !os.IsNotExist(de) || !os.IsNotExist(me) {
		t.Fatalf("missing-file errors not IsNotExist: disk %v, mem %v", de, me)
	}
}

// TestMemFSCloneIsolation: a clone diverges independently of its parent.
func TestMemFSCloneIsolation(t *testing.T) {
	m := NewMemFS()
	if err := m.WriteFile("x", []byte("one"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	c := m.Clone()
	if err := c.WriteFile("x", []byte("two"), 0o644); err != nil {
		t.Fatalf("clone write: %v", err)
	}
	if err := c.WriteFile("y", []byte("new"), 0o644); err != nil {
		t.Fatalf("clone write: %v", err)
	}
	if b, _ := m.ReadFile("x"); string(b) != "one" {
		t.Fatalf("parent mutated through clone: %q", b)
	}
	if _, err := m.ReadFile("y"); !os.IsNotExist(err) {
		t.Fatalf("parent grew a file through clone: %v", err)
	}
}

// TestFaultENOSPC: ENOSPC triggers by op index and by glob, persists a
// seeded prefix (torn), and classifies as a typed FaultError unwrapping to
// syscall.ENOSPC.
func TestFaultENOSPC(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"by op", Plan{Seed: 7, ENOSPCAtOp: 1}},
		{"by glob", Plan{Seed: 7, ENOSPCGlob: "*.doc"}},
	} {
		m := NewMemFS()
		f := NewFault(m, tc.plan)
		err := f.WriteFile("a.doc", []byte("0123456789"), 0o644)
		if err == nil {
			t.Fatalf("%s: write succeeded", tc.name)
		}
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Kind != "enospc" {
			t.Fatalf("%s: error %v not a FaultError{enospc}", tc.name, err)
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("%s: error does not unwrap to ENOSPC", tc.name)
		}
		b, rerr := m.ReadFile("a.doc")
		if rerr != nil {
			t.Fatalf("%s: torn file missing entirely: %v", tc.name, rerr)
		}
		if len(b) >= 10 {
			t.Fatalf("%s: ENOSPC persisted the full write (%d bytes)", tc.name, len(b))
		}
		if !bytes.HasPrefix([]byte("0123456789"), b) {
			t.Fatalf("%s: torn bytes %q are not a prefix", tc.name, b)
		}
	}
}

// TestFaultShortWriteDeterministic: the torn prefix is a pure function of
// seed and op index.
func TestFaultShortWriteDeterministic(t *testing.T) {
	lens := map[int]bool{}
	var first []byte
	for i := 0; i < 3; i++ {
		m := NewMemFS()
		f := NewFault(m, Plan{Seed: 42, ShortWriteAtOp: 1})
		err := f.WriteFile("x", []byte("abcdefgh"), 0o644)
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Kind != "short-write" {
			t.Fatalf("short write error = %v", err)
		}
		b, _ := m.ReadFile("x")
		lens[len(b)] = true
		if first == nil {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatalf("seeded torn prefix varies across runs: %q vs %q", first, b)
		}
	}
	if len(lens) != 1 {
		t.Fatalf("torn lengths varied: %v", lens)
	}
	// A different seed tears differently somewhere in the first few ops.
	m1, m2 := NewMemFS(), NewMemFS()
	NewFault(m1, Plan{Seed: 1, ShortWriteAtOp: 1}).WriteFile("x", []byte("abcdefgh"), 0o644)
	NewFault(m2, Plan{Seed: 99, ShortWriteAtOp: 1}).WriteFile("x", []byte("abcdefgh"), 0o644)
	b1, _ := m1.ReadFile("x")
	b2, _ := m2.ReadFile("x")
	if bytes.Equal(b1, b2) {
		t.Logf("seeds 1 and 99 tore identically (%d bytes) — legal but unusual", len(b1))
	}
}

// TestFaultRenameAndSync: torn renames fail without effect; sync failures
// classify as typed errors.
func TestFaultRenameAndSync(t *testing.T) {
	m := NewMemFS()
	f := NewFault(m, Plan{RenameFailAtOp: 2, SyncFailGlob: "*.journal"})
	if err := f.WriteFile("a", []byte("x"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	err := f.Rename("a", "b")
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Kind != "torn-rename" {
		t.Fatalf("rename error = %v", err)
	}
	if _, rerr := m.ReadFile("b"); !os.IsNotExist(rerr) {
		t.Fatal("failed rename still created the destination")
	}
	if b, rerr := m.ReadFile("a"); rerr != nil || string(b) != "x" {
		t.Fatalf("failed rename destroyed the source: %q %v", b, rerr)
	}

	if err := f.WriteFile("s.journal", []byte("y"), 0o644); err != nil {
		t.Fatalf("write journal: %v", err)
	}
	err = f.Sync("s.journal")
	if !errors.As(err, &fe) || fe.Kind != "sync" {
		t.Fatalf("sync error = %v", err)
	}
	if err := f.Sync("a"); err != nil {
		t.Fatalf("sync on non-matching path failed: %v", err)
	}
}

// TestFaultCrashSemantics: after the crash op everything fails with
// ErrCrashed and nothing mutates; the crash op itself applies a torn
// partial effect.
func TestFaultCrashSemantics(t *testing.T) {
	m := NewMemFS()
	f := NewFault(m, Plan{Seed: 3, CrashAtOp: 2})
	if err := f.WriteFile("a", []byte("alpha"), 0o644); err != nil {
		t.Fatalf("pre-crash write: %v", err)
	}
	err := f.WriteFile("b", []byte("beta"), 0o644) // op 2: crash
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash op error = %v", err)
	}
	if !f.Crashed() {
		t.Fatal("fault not marked crashed")
	}
	// The torn partial effect is a strict prefix.
	if b, rerr := m.ReadFile("b"); rerr == nil && len(b) >= 4 {
		t.Fatalf("crash write persisted fully: %q", b)
	}
	// Everything after the crash fails, mutating or not, with no effect.
	if err := f.WriteFile("c", []byte("x"), 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write error = %v", err)
	}
	if _, err := f.ReadFile("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read error = %v", err)
	}
	if _, err := f.Stat("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash stat error = %v", err)
	}
	if _, err := f.Glob("*"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash glob error = %v", err)
	}
	if err := f.Remove("a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash remove error = %v", err)
	}
	if b, rerr := m.ReadFile("a"); rerr != nil || string(b) != "alpha" {
		t.Fatalf("post-crash ops mutated state: %q %v", b, rerr)
	}
	if _, rerr := m.ReadFile("c"); !os.IsNotExist(rerr) {
		t.Fatal("post-crash write created a file")
	}
}

// TestEnumerateSelfCheck runs the harness over a tmp+rename workload — the
// envelope discipline in miniature — and asserts the atomicity property it
// exists to test: at every crash point the target file is byte-identical
// to the pre state or the post state, never a blend.
func TestEnumerateSelfCheck(t *testing.T) {
	base := NewMemFS()
	if err := base.WriteFile("doc", []byte("old"), 0o644); err != nil {
		t.Fatalf("seed: %v", err)
	}
	workload := func(fsys FS) error {
		if err := fsys.WriteFile("doc.tmp", []byte("new-contents"), 0o644); err != nil {
			return err
		}
		if err := fsys.Sync("doc.tmp"); err != nil {
			return err
		}
		if err := fsys.Rename("doc.tmp", "doc"); err != nil {
			return err
		}
		return fsys.Sync(".")
	}
	n, err := Enumerate(base, 11, workload, func(k int, crashed *MemFS) error {
		// Recovery: sweep the torn temp file, then the doc must be
		// exactly old or exactly new.
		if _, err := crashed.Stat("doc.tmp"); err == nil {
			if err := crashed.Remove("doc.tmp"); err != nil {
				return err
			}
		}
		b, rerr := crashed.ReadFile("doc")
		if rerr != nil {
			return rerr
		}
		if s := string(b); s != "old" && s != "new-contents" {
			t.Fatalf("crash at op %d left a third state: %q", k, s)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	if n != 4 {
		t.Fatalf("workload op count = %d, want 4 (write, sync, rename, sync)", n)
	}
}

// TestFromEnv: the env seam parses every clause, rejects junk, and returns
// the plain disk for an empty spec.
func TestFromEnv(t *testing.T) {
	if fsys, err := FromEnv(""); err != nil || fsys != Disk {
		t.Fatalf("empty spec = (%T, %v), want Disk", fsys, err)
	}
	fsys, err := FromEnv("enospc=*.doc.json,seed=9")
	if err != nil {
		t.Fatalf("FromEnv: %v", err)
	}
	f, ok := fsys.(*Fault)
	if !ok || f.plan.ENOSPCGlob != "*.doc.json" || f.plan.Seed != 9 {
		t.Fatalf("parsed fault = %+v", f)
	}
	for _, bad := range []string{"bogus", "frob=1", "enospc-at=x", "crash-at=", "seed=zz",
		"crash-at=5x", "crash-at=-1", "enospc-at=0", "seed=-1", "enospc=[", "syncfail=a\\", "enospc="} {
		if _, err := FromEnv(bad); err == nil {
			t.Fatalf("FromEnv(%q) accepted junk", bad)
		}
	}
	// A glob-starved write through the env fault really fails ENOSPC.
	mem := NewMemFS()
	if err := mem.MkdirAll("store", 0o755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	f2, _ := FromEnv("enospc=*.doc.json")
	fault := NewFault(mem, f2.(*Fault).plan)
	if err := fault.WriteFile("store/abcd.doc.json", []byte("d"), 0o644); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("env-configured ENOSPC did not fire: %v", err)
	}
	if err := fault.WriteFile("store/abcd.job.json", []byte("j"), 0o644); err != nil {
		t.Fatalf("env-configured ENOSPC hit a non-matching path: %v", err)
	}
}

// envSpec renders the plan fields FromEnv sets as a spec it parses.
func envSpec(p Plan) string {
	clauses := []string{"seed=" + strconv.FormatUint(p.Seed, 10)}
	for _, g := range []struct{ k, v string }{{"enospc", p.ENOSPCGlob}, {"syncfail", p.SyncFailGlob}} {
		if g.v != "" {
			clauses = append(clauses, g.k+"="+g.v)
		}
	}
	for _, c := range []struct {
		k string
		n int
	}{{"enospc-at", p.ENOSPCAtOp}, {"crash-at", p.CrashAtOp}} {
		if c.n != 0 {
			clauses = append(clauses, c.k+"="+strconv.Itoa(c.n))
		}
	}
	return strings.Join(clauses, ",")
}

// FuzzFromEnv: the PROTOLAT_FSFAULT parser never panics, fails only with
// a storage: error, and every spec it accepts yields a plan with no
// negative op index and no malformed glob that round-trips through its
// spec form.
func FuzzFromEnv(f *testing.F) {
	for _, s := range []string{"", "enospc=*.doc.json,seed=9", "syncfail=*.journal,enospc-at=3,crash-at=7,seed=0",
		"crash-at=5x", "crash-at=-1", "enospc=[", ",,", "seed=18446744073709551615", "enospc=a=b"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fsys, err := FromEnv(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "storage: ") {
				t.Fatalf("FromEnv(%q): untyped error %v", spec, err)
			}
			return
		}
		fault, ok := fsys.(*Fault)
		if !ok {
			if spec != "" {
				t.Fatalf("FromEnv(%q) = %T, want a *Fault", spec, fsys)
			}
			return
		}
		p := fault.plan
		if p.CrashAtOp < 0 || p.ENOSPCAtOp < 0 {
			t.Fatalf("FromEnv(%q): negative op index in %+v", spec, p)
		}
		for _, g := range []string{p.ENOSPCGlob, p.SyncFailGlob} {
			if _, err := filepath.Match(g, ""); err != nil {
				t.Fatalf("FromEnv(%q): accepted malformed glob %q", spec, g)
			}
		}
		again, err := FromEnv(envSpec(p))
		if err != nil {
			t.Fatalf("FromEnv(%q): plan %+v renders as %q, which fails: %v", spec, p, envSpec(p), err)
		}
		if got := again.(*Fault).plan; got != p {
			t.Fatalf("FromEnv(%q): plan %+v round-trips to %+v", spec, p, got)
		}
	})
}
