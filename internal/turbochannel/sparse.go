// Package turbochannel models the sparse shared-memory window through which
// the LANCE Ethernet controller and the CPU communicate on TURBOchannel
// machines. The LANCE has a 16-bit bus interface on a 32-bit bus, so the
// shared region is used sparsely: for descriptor memory every 16 bits of
// data are followed by a 16-bit gap, and for buffer memory 16 bytes of data
// are followed by a 16-byte gap (§2.2.4).
package turbochannel

import (
	"fmt"
	"sync"
)

// SparseBase is the virtual address of the shared window. Its b-cache
// offset (0x150000) avoids the static-data, heap, and stack regions.
const SparseBase = 0x0115_0000

// Region is one sparse shared-memory region. Dense offsets index the
// payload bytes the way driver code thinks about them; the Addr methods
// translate to the sparse virtual addresses the hardware actually decodes,
// which is what the d-cache simulation sees.
//
// A region's dense bytes are recycled: Release hands them to a pool that
// the next NewRegion draws from, clearing them first, so a region built
// from recycled bytes is indistinguishable from a fresh one. The pool is
// emptied by the garbage collector and has no cap.
type Region struct {
	base  uint64
	dense []byte
}

// denseBufs holds Released regions' dense bytes (*[]byte).
var denseBufs sync.Pool

// NewRegion returns a zeroed region holding denseBytes of payload at the
// given virtual base address, reusing the bytes of a Released region when
// one is large enough.
func NewRegion(base uint64, denseBytes int) *Region {
	if b, _ := denseBufs.Get().(*[]byte); b != nil && cap(*b) >= denseBytes {
		dense := (*b)[:denseBytes]
		clear(dense)
		return &Region{base: base, dense: dense}
	}
	return &Region{base: base, dense: make([]byte, denseBytes)}
}

// Release hands the region's dense bytes back for a later NewRegion to
// reuse. The region must not be used afterwards: its accessors fail.
func (r *Region) Release() {
	b := r.dense
	r.dense = nil
	denseBufs.Put(&b)
}

// Base returns the region's virtual base address.
func (r *Region) Base() uint64 { return r.base }

// DenseLen returns the payload capacity in bytes.
func (r *Region) DenseLen() int { return len(r.dense) }

// WordAddr returns the sparse virtual address of the 16-bit word holding
// dense bytes [2*wordIdx, 2*wordIdx+2): each word occupies a 32-bit slot.
func (r *Region) WordAddr(wordIdx int) uint64 {
	return r.base + uint64(wordIdx)*4
}

// BufAddr returns the sparse virtual address of the dense buffer byte at
// off: 16 bytes of data alternate with 16-byte gaps.
func (r *Region) BufAddr(off int) uint64 {
	return r.base + uint64(off/16)*32 + uint64(off%16)
}

// ReadWord returns the 16-bit word at the given word index.
func (r *Region) ReadWord(wordIdx int) uint16 {
	o := wordIdx * 2
	return uint16(r.dense[o]) | uint16(r.dense[o+1])<<8
}

// WriteWord stores a 16-bit word at the given word index.
func (r *Region) WriteWord(wordIdx int, v uint16) {
	o := wordIdx * 2
	r.dense[o] = byte(v)
	r.dense[o+1] = byte(v >> 8)
}

// ReadBuf copies n payload bytes starting at dense offset off.
func (r *Region) ReadBuf(off, n int) []byte {
	out := make([]byte, n)
	copy(out, r.dense[off:off+n])
	return out
}

// Buf returns the n payload bytes starting at dense offset off, aliased:
// writes through it land in the region, and it stays valid only until the
// region is Released.
func (r *Region) Buf(off, n int) []byte { return r.dense[off : off+n] }

// WriteBuf stores payload bytes at dense offset off.
func (r *Region) WriteBuf(off int, data []byte) {
	copy(r.dense[off:], data)
}

func (r *Region) String() string {
	return fmt.Sprintf("sparse{base=%#x dense=%dB}", r.base, len(r.dense))
}
