package xkernel

import (
	"errors"
	"fmt"
	"sync"
)

// Msg is the x-kernel message tool: a byte buffer with headroom so that
// protocol headers are pushed and stripped at the front without copying.
// Messages are reference counted — TCP holds a reference for retransmission
// while the driver sends the data — and carry the virtual address of their
// buffer for d-cache modeling.
type Msg struct {
	buf   []byte
	off   int // first valid byte
	end   int // one past last valid byte
	refs  int
	addr  uint64
	size  int // allocation size (for Free)
	alloc *Allocator

	// NetSrc and NetDst carry the network-layer endpoints across the
	// IP/transport boundary (the pseudo-header information the x-kernel
	// passes out of band as participants).
	NetSrc, NetDst uint32
}

// errors returned by the message tool.
var (
	ErrMsgUnderflow = errors.New("xkernel: message shorter than requested header")
	ErrMsgOverflow  = errors.New("xkernel: not enough headroom for header push")
	ErrMsgDead      = errors.New("xkernel: operation on destroyed message")
)

// defaultHeadroom leaves space for the deepest header stack in either test
// configuration (Ethernet + IP + TCP, or Ethernet + the five RPC layers).
const defaultHeadroom = 128

// NewMsg allocates a message able to carry payload of n bytes below a full
// header stack.
func NewMsg(a *Allocator, n int) *Msg {
	return newMsg(a, make([]byte, defaultHeadroom+n))
}

// newMsg builds a message over buf, which must be zeroed and hold
// defaultHeadroom plus the payload capacity.
func newMsg(a *Allocator, buf []byte) *Msg {
	size := len(buf)
	m := &Msg{
		buf:   buf,
		off:   defaultHeadroom,
		end:   defaultHeadroom,
		refs:  1,
		size:  size,
		alloc: a,
	}
	if a != nil {
		m.addr = a.Alloc(size)
	}
	return m
}

// NewMsgData allocates a message holding a copy of payload.
func NewMsgData(a *Allocator, payload []byte) *Msg {
	m := NewMsg(a, len(payload))
	m.end = m.off + len(payload)
	copy(m.buf[m.off:m.end], payload)
	return m
}

// Addr returns the virtual address of the first valid byte.
func (m *Msg) Addr() uint64 { return m.addr + uint64(m.off) }

// Len returns the number of valid bytes.
func (m *Msg) Len() int { return m.end - m.off }

// Bytes returns the valid contents (aliased, not copied).
func (m *Msg) Bytes() []byte { return m.buf[m.off:m.end] }

// Refs returns the current reference count.
func (m *Msg) Refs() int { return m.refs }

// Push prepends a header, failing if headroom is exhausted.
func (m *Msg) Push(hdr []byte) error {
	if m.refs <= 0 {
		return ErrMsgDead
	}
	if len(hdr) > m.off {
		return ErrMsgOverflow
	}
	m.off -= len(hdr)
	copy(m.buf[m.off:], hdr)
	return nil
}

// Pop strips and returns the first n bytes.
func (m *Msg) Pop(n int) ([]byte, error) {
	if m.refs <= 0 {
		return nil, ErrMsgDead
	}
	if m.Len() < n {
		return nil, ErrMsgUnderflow
	}
	h := m.buf[m.off : m.off+n]
	m.off += n
	return h, nil
}

// Peek returns the first n bytes without stripping them.
func (m *Msg) Peek(n int) ([]byte, error) {
	if m.Len() < n {
		return nil, ErrMsgUnderflow
	}
	return m.buf[m.off : m.off+n], nil
}

// Append adds payload bytes at the end.
func (m *Msg) Append(data []byte) error {
	if m.refs <= 0 {
		return ErrMsgDead
	}
	if m.end+len(data) > len(m.buf) {
		grown := make([]byte, m.end+len(data)+64)
		copy(grown, m.buf)
		m.buf = grown
	}
	copy(m.buf[m.end:], data)
	m.end += len(data)
	return nil
}

// Truncate keeps only the first n valid bytes.
func (m *Msg) Truncate(n int) error {
	if n > m.Len() {
		return ErrMsgUnderflow
	}
	m.end = m.off + n
	return nil
}

// Incref adds a reference (e.g. TCP keeping the segment for retransmit).
func (m *Msg) Incref() { m.refs++ }

// Destroy drops a reference; when the count reaches zero the buffer is
// returned to the allocator. It reports whether memory was actually freed.
func (m *Msg) Destroy() bool {
	if m.refs <= 0 {
		return false
	}
	m.refs--
	if m.refs > 0 {
		return false
	}
	if m.alloc != nil {
		m.alloc.Free(m.addr, m.size)
	}
	return true
}

// Clone returns an independent copy of the message contents (used by BLAST
// fragmentation); header room is fresh.
func (m *Msg) Clone(a *Allocator) *Msg {
	return NewMsgData(a, m.Bytes())
}

func (m *Msg) String() string {
	return fmt.Sprintf("msg{len=%d refs=%d addr=%#x}", m.Len(), m.refs, m.Addr())
}

// Pool is the pool of pre-allocated message buffers the interrupt handler
// draws from. Refresh models §2.2.2's optimization: originally a processed
// buffer was destroyed and a fresh one allocated; the improved code detects
// the common case — the shepherded message holds the last reference — and
// recycles the buffer without touching malloc/free.
//
// Apart from that simulated recycling, the Go byte buffers behind a pool's
// messages are recycled between pools: Release hands the buffers of the
// messages on the free list to a process-wide pool, and every buffer a
// Pool allocates comes from there when one is large enough, cleared
// first. A message that has left the pool (in flight, or held for
// retransmission) is never recycled, and the simulated allocator calls,
// addresses and Mallocs/Frees counts are those of fresh buffers.
type Pool struct {
	alloc   *Allocator
	payload int
	freeMsg []*Msg

	// ShortCircuit enables the improved refresh path.
	ShortCircuit bool

	// Mallocs and Frees count allocator round trips, so tests and the
	// Table 1 experiment can observe the saved work.
	Mallocs int
	Frees   int
}

// NewPool builds a pool whose buffers carry payloads up to payload bytes.
func NewPool(a *Allocator, payload, count int) *Pool {
	p := &Pool{alloc: a, payload: payload}
	for i := 0; i < count; i++ {
		p.freeMsg = append(p.freeMsg, p.allocMsg())
	}
	return p
}

// msgBufs holds the Go buffers (*[]byte) of Released pools' messages.
var msgBufs sync.Pool

// allocMsg allocates a pool message, on a recycled buffer when one fits.
func (p *Pool) allocMsg() *Msg {
	p.Mallocs++
	size := defaultHeadroom + p.payload
	if b, _ := msgBufs.Get().(*[]byte); b != nil && cap(*b) >= size {
		buf := (*b)[:size]
		clear(buf)
		return newMsg(p.alloc, buf)
	}
	return NewMsg(p.alloc, p.payload)
}

// Release hands the buffers of the messages on the free list back for a
// later pool to reuse. Neither the pool nor those messages may be used
// afterwards: the messages read as destroyed.
func (p *Pool) Release() {
	for _, m := range p.freeMsg {
		b := m.buf
		m.buf, m.refs = nil, 0
		msgBufs.Put(&b)
	}
	p.freeMsg = nil
}

// Get takes a buffer from the pool (allocating if empty, as the x-kernel
// does under load).
func (p *Pool) Get() *Msg {
	if n := len(p.freeMsg); n > 0 {
		m := p.freeMsg[n-1]
		p.freeMsg = p.freeMsg[:n-1]
		return m
	}
	return p.allocMsg()
}

// Refresh returns a ready-to-use buffer to the pool after protocol
// processing finished with m, and reports whether the fast path was taken.
func (p *Pool) Refresh(m *Msg) bool {
	if p.ShortCircuit && m.refs == 1 {
		// Common case: nobody else references the message; recycle the
		// buffer in place with full headroom restored.
		m.off = defaultHeadroom
		m.end = defaultHeadroom
		p.freeMsg = append(p.freeMsg, m)
		return true
	}
	// Original path: destroy (possibly freeing) and allocate a fresh
	// buffer.
	if m.Destroy() {
		p.Frees++
	}
	p.freeMsg = append(p.freeMsg, p.allocMsg())
	return false
}
