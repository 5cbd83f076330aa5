//go:build !race

package serve

import (
	"runtime"
	"testing"

	"repro/internal/storage"
)

// getAllocsLimit bounds the allocations of one memo hit on the table-4
// document: the file read, the header parse and its canonical re-encoding,
// the path and the Stat, 12 in all. Unmarshal, compact and indent of the
// document made 20, and an indent pass alone adds 2.
const getAllocsLimit = 13

// getSlackBytes bounds what one memo hit allocates beyond the copy of the
// file it reads. Another pass over the document that builds its output
// costs at least the document's size again.
const getSlackBytes = 8 << 10

// TestStoreGetAllocs keeps the JSON re-parse from creeping back into the
// memo-hit path: Get of the table-4 document over MemFS stays within
// getAllocsLimit allocations and allocates no more than the file's size
// plus getSlackBytes. Race builds skip it: the detector's instrumentation
// changes allocation counts.
func TestStoreGetAllocs(t *testing.T) {
	st, err := OpenStoreFS(storage.NewMemFS(), "store", 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	spec := Spec{Kind: "table", Table: 4}
	doc := studyBytes(t, spec)
	fp := spec.Normalized().Fingerprint("test-checkout")
	if err := st.Put(fp, doc); err != nil {
		t.Fatalf("Put: %v", err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if got, err := st.Get(fp); err != nil || len(got) != len(doc) {
			t.Fatalf("Get = (%d bytes, %v), want the %d-byte document", len(got), err, len(doc))
		}
	})
	t.Logf("Get of the %d-byte table-4 document: %.0f allocations", len(doc), allocs)
	if allocs > getAllocsLimit {
		t.Fatalf("Get of the table-4 document made %.0f allocations, limit %d", allocs, getAllocsLimit)
	}

	const runs = 20
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		st.Get(fp)
	}
	runtime.ReadMemStats(&after)
	file, _ := st.fs.Stat(st.docPath(fp))
	perGet := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Get of the %d-byte file: %d bytes allocated", file.Size(), perGet)
	if limit := uint64(file.Size()) + getSlackBytes; perGet > limit {
		t.Fatalf("Get of the table-4 document allocated %d bytes, limit %d (the file plus %d)", perGet, limit, getSlackBytes)
	}
}
