package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/storage"
)

// Store file formats, both carried by internal/storage's envelope (a
// header line, then the payload verbatim; tmp+rename+CRC-32, typed
// *storage.EnvelopeError on every failure mode).
const (
	// docMagic identifies a memoized result document.
	docMagic = "protolat-serve-doc"
	// jobMagic identifies a journaled pending job.
	jobMagic = "protolat-serve-job"
	// storeSchema versions both formats together; 2 is the header-line
	// envelope.
	storeSchema = 2
)

// Store is the daemon's crash-safe on-disk state: memoized result
// documents keyed by spec fingerprint and journaled pending jobs (written
// at admission, removed at completion). Every file is written atomically
// under the storage envelope, so a kill -9 at any instant leaves the store
// replayable: Recover drops torn temp files and returns the jobs that were
// admitted but never finished.
//
// When maxBytes is positive the store evicts least-recently-used documents
// to stay under the cap. Eviction is itself crash-safe: each eviction is a
// single atomic Remove, and a fingerprint with a journaled-but-unserved job
// is never evicted (its document is the job's pending answer). All file
// operations go through the injected storage.FS so the fault layer can
// enumerate crash points through the store paths too.
type Store struct {
	dir      string
	fs       storage.FS
	maxBytes int64

	mu sync.Mutex
	// lru orders resident document fingerprints from least to most
	// recently used; sizes maps fingerprint to stored byte size. Both
	// cover only .doc.json files — jobs are transient and never evicted.
	lru     []string
	sizes   map[string]int64
	evicted int64 // documents evicted since open
	freed   int64 // bytes freed by eviction since open
}

// RecoveredJob is one admitted-but-unfinished job replayed from the
// journaled queue after a restart.
type RecoveredJob struct {
	Fingerprint string
	Spec        Spec
}

// OpenStore opens (creating if needed) a store rooted at dir on the real
// filesystem with no size cap.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreFS(nil, dir, 0)
}

// OpenStoreFS opens (creating if needed) a store rooted at dir, performing
// every file operation through fsys (nil means the real disk). maxBytes > 0
// caps the resident document bytes; the store evicts least-recently-used
// documents to stay under it. The initial recency order is the directory's
// lexicographic fingerprint order — deterministic across restarts, refined
// by use as documents are read and written.
func OpenStoreFS(fsys storage.FS, dir string, maxBytes int64) (*Store, error) {
	fsys = storage.Default(fsys)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, fs: fsys, maxBytes: maxBytes, sizes: map[string]int64{}}
	docs, err := fsys.Glob(filepath.Join(dir, "*.doc.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(docs)
	for _, p := range docs {
		fi, err := fsys.Stat(p)
		if err != nil {
			continue
		}
		fp := strings.TrimSuffix(filepath.Base(p), ".doc.json")
		s.lru = append(s.lru, fp)
		s.sizes[fp] = fi.Size()
	}
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) docPath(fp string) string { return filepath.Join(s.dir, fp+".doc.json") }
func (s *Store) jobPath(fp string) string { return filepath.Join(s.dir, fp+".job.json") }

// touch moves fp to the most-recently-used end of the LRU order, adding it
// if absent, and records its size.
func (s *Store) touch(fp string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.lru, fp); i >= 0 {
		s.lru = slices.Delete(s.lru, i, i+1)
	}
	s.lru = append(s.lru, fp)
	s.sizes[fp] = size
}

// forget removes fp from the LRU index.
func (s *Store) forget(fp string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i := slices.Index(s.lru, fp); i >= 0 {
		s.lru = slices.Delete(s.lru, i, i+1)
	}
	delete(s.sizes, fp)
}

// Bytes reports the resident document bytes, the configured cap (0 =
// uncapped), and the eviction counters since open.
func (s *Store) Bytes() (resident, capBytes, evicted, freed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range s.sizes {
		resident += n
	}
	return resident, s.maxBytes, s.evicted, s.freed
}

// evict removes least-recently-used documents until resident bytes fit
// under the cap. keep is the fingerprint just written — never evicted, even
// if it alone exceeds the cap (a stored result must survive its own Put).
// Fingerprints with a journaled pending job are skipped too: their document
// is the answer an admitted client is still waiting to fetch. Each eviction
// is one atomic Remove, so a crash mid-evict leaves every remaining
// document intact and byte-identical — the enumeration test asserts this.
func (s *Store) evict(keep string) error {
	if s.maxBytes <= 0 {
		return nil
	}
	s.mu.Lock()
	total := int64(0)
	for _, n := range s.sizes {
		total += n
	}
	type victim struct {
		fp   string
		size int64
	}
	var victims []victim
	for _, fp := range s.lru {
		if total <= s.maxBytes {
			break
		}
		if fp == keep {
			continue
		}
		if _, err := s.fs.Stat(s.jobPath(fp)); err == nil {
			continue // journaled-but-unserved: never evict
		}
		victims = append(victims, victim{fp, s.sizes[fp]})
		total -= s.sizes[fp]
	}
	s.mu.Unlock()
	for _, v := range victims {
		if err := s.fs.Remove(s.docPath(v.fp)); err != nil && !os.IsNotExist(err) {
			return &storage.EnvelopeError{Path: s.docPath(v.fp), Reason: "io", Err: err}
		}
		s.forget(v.fp)
		s.mu.Lock()
		s.evicted++
		s.freed += v.size
		s.mu.Unlock()
	}
	return nil
}

// Get returns the memoized document for a fingerprint: (nil, nil) on a
// miss, the exact bytes Put stored on a hit (the envelope's payload,
// returned without a JSON pass), and a *storage.EnvelopeError for a tampered
// or torn entry. A document in a layout this binary does not speak (a
// "schema" error) is a miss too, so its spec recomputes and Put overwrites
// it. A hit refreshes the entry's LRU recency.
func (s *Store) Get(fp string) ([]byte, error) {
	path := s.docPath(fp)
	doc, err := storage.LoadEnvelopeFS(s.fs, path, docMagic, storeSchema, fp)
	if err != nil {
		var ee *storage.EnvelopeError
		if errors.As(err, &ee) && (ee.Reason == "missing" || ee.Reason == "schema") {
			return nil, nil
		}
		return nil, err
	}
	if fi, err := s.fs.Stat(path); err == nil {
		s.touch(fp, fi.Size())
	}
	return doc, nil
}

// Put memoizes a completed document, verbatim, under its fingerprint, then
// evicts least-recently-used documents if the store exceeds its byte cap.
func (s *Store) Put(fp string, doc []byte) error {
	if err := storage.SaveEnvelopeFS(s.fs, s.docPath(fp), docMagic, storeSchema, fp, json.RawMessage(doc)); err != nil {
		return err
	}
	size := int64(0)
	if fi, err := s.fs.Stat(s.docPath(fp)); err == nil {
		size = fi.Size()
	}
	s.touch(fp, size)
	return s.evict(fp)
}

// PutJob journals an admitted job so a crashed daemon can replay it.
func (s *Store) PutJob(fp string, spec Spec) error {
	return storage.SaveEnvelopeFS(s.fs, s.jobPath(fp), jobMagic, storeSchema, fp, spec)
}

// DropJob removes a finished job's journal entry. Best-effort: missing is
// fine, and a stale job file is re-dropped on the next recovery pass when
// its document is found present.
func (s *Store) DropJob(fp string) { _ = s.fs.Remove(s.jobPath(fp)) }

// Recover replays the store after a restart: torn temp files are removed,
// job entries whose document already exists are dropped (the crash hit
// between persist and cleanup), unreadable or empty job entries are
// discarded, entries whose spec no longer decodes or validates under this
// binary's schema are dropped (schema drift is a clean sweep, not a panic
// and not a silently different job), and the remaining
// admitted-but-unfinished jobs are returned in fingerprint order for
// re-execution.
func (s *Store) Recover() ([]RecoveredJob, error) {
	tmps, err := s.fs.Glob(filepath.Join(s.dir, "*.tmp"))
	if err != nil {
		return nil, err
	}
	for _, p := range tmps {
		if err := s.fs.Remove(p); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
	}
	jobs, err := s.fs.Glob(filepath.Join(s.dir, "*.job.json"))
	if err != nil {
		return nil, err
	}
	var out []RecoveredJob
	for _, p := range jobs {
		fp := strings.TrimSuffix(filepath.Base(p), ".job.json")
		if _, err := s.fs.Stat(s.docPath(fp)); err == nil {
			s.DropJob(fp)
			continue
		}
		raw, err := storage.LoadEnvelopeFS(s.fs, p, jobMagic, storeSchema, fp)
		if err != nil {
			// A torn, empty, or tampered job entry cannot be replayed;
			// drop it rather than wedge startup. The client that
			// submitted it will resubmit and be treated as a fresh
			// request.
			s.DropJob(fp)
			continue
		}
		spec, err := decodeSpec(bytes.NewReader(raw))
		if err != nil || spec.Normalized().Validate() != nil {
			// Schema drift: the journaled spec names a field this
			// binary no longer has, or no longer canonicalizes under
			// it. Sweep it instead of replaying a job we cannot honor.
			s.DropJob(fp)
			continue
		}
		out = append(out, RecoveredJob{Fingerprint: fp, Spec: spec})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Fingerprint < out[j].Fingerprint })
	return out, nil
}
