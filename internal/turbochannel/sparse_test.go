package turbochannel

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestWordAddressingIsSparse(t *testing.T) {
	r := NewRegion(SparseBase, 64)
	// Consecutive 16-bit words are 4 bytes apart: 16 bits of data, 16 of
	// gap.
	if r.WordAddr(0) != SparseBase || r.WordAddr(1) != SparseBase+4 {
		t.Fatalf("word addresses: %#x %#x", r.WordAddr(0), r.WordAddr(1))
	}
	// A 5-word (10-byte) descriptor therefore spans 20 bytes of sparse
	// address space, matching the paper's "every update involves copying
	// 20 bytes".
	if r.WordAddr(5)-r.WordAddr(0) != 20 {
		t.Fatal("descriptor sparse span != 20 bytes")
	}
}

func TestBufAddressingIsSparse(t *testing.T) {
	r := NewRegion(SparseBase, 64)
	// 16 bytes of data alternate with 16-byte gaps.
	if r.BufAddr(0) != SparseBase || r.BufAddr(15) != SparseBase+15 {
		t.Fatal("first data chunk must be contiguous")
	}
	if r.BufAddr(16) != SparseBase+32 {
		t.Fatalf("second chunk must skip the gap: %#x", r.BufAddr(16))
	}
	if r.BufAddr(31)-r.BufAddr(16) != 15 {
		t.Fatal("within-chunk contiguity")
	}
}

func TestWordReadWrite(t *testing.T) {
	r := NewRegion(SparseBase, 32)
	r.WriteWord(3, 0xBEEF)
	if got := r.ReadWord(3); got != 0xBEEF {
		t.Fatalf("word = %#x", got)
	}
	if got := r.ReadWord(2); got != 0 {
		t.Fatalf("neighbour disturbed: %#x", got)
	}
}

func TestBufReadWriteProperty(t *testing.T) {
	f := func(off uint8, data []byte) bool {
		if len(data) > 64 {
			data = data[:64]
		}
		r := NewRegion(SparseBase, 512)
		o := int(offsetClamp(off))
		r.WriteBuf(o, data)
		got := r.ReadBuf(o, len(data))
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func offsetClamp(o uint8) uint8 {
	if o > 128 {
		return 128
	}
	return o
}

func TestString(t *testing.T) {
	r := NewRegion(SparseBase, 16)
	if r.String() == "" || r.Base() != SparseBase || r.DenseLen() != 16 {
		t.Fatal("accessors")
	}
}

// TestReleasedRegionComesBackZeroed: a region built on the bytes of a
// Released one, of the same size or smaller, reads all zero, and a
// request larger than anything pooled still gets its full size.
func TestReleasedRegionComesBackZeroed(t *testing.T) {
	for _, n := range []int{256, 100, 4096} {
		dirty := NewRegion(SparseBase, 256)
		dirty.WriteBuf(0, bytes.Repeat([]byte{0xA5}, 256))
		dirty.Release()
		r := NewRegion(SparseBase+64, n)
		if r.DenseLen() != n || r.Base() != SparseBase+64 {
			t.Fatalf("size %d: got %v", n, r)
		}
		if got := r.ReadBuf(0, n); !bytes.Equal(got, make([]byte, n)) {
			t.Fatalf("size %d: recycled region is not zeroed", n)
		}
		r.Release()
	}
}
