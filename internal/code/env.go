package code

// stackName is the distinguished operand naming the current thread stack.
// Unnamed memory operands model stack-frame accesses and resolve through
// it, and LinkData never assigns it static storage.
const stackName = "$stack"

// Slot flags: which of a name's bindings a slot holds.
const (
	hasAddr uint8 = 1 << iota
	hasCond
	hasCount
)

// slot holds every binding of one interned name. It is live only while
// gen equals its Binding's generation; a stale slot reads as empty.
type slot struct {
	gen  uint32
	has  uint8
	val  bool
	addr uint64
	fn   func() bool
	// counts is allocated on the name's first PushCount and survives
	// Reset, emptied, for the next event's.
	counts *countQueue
}

// countQueue is the FIFO of one name's queued loop counts.
type countQueue struct {
	vals []int
	head int
}

// next returns true while the count at the front has iterations left,
// consuming one; when it reaches zero the count is popped and false
// returned.
func (q *countQueue) next() bool {
	if q.head == len(q.vals) {
		return false
	}
	if q.vals[q.head] > 0 {
		q.vals[q.head]--
		return true
	}
	q.head++
	return false
}

// Binding binds a code model's symbolic names to run-time protocol state:
// condition values, closures and queued loop counts, and data-object
// addresses. The engine consults it for every conditional branch and for
// the base address of every memory operand; this is how the functional Go
// protocol implementations drive the modeled instruction stream. A nil
// *Binding binds nothing, and the zero value is an empty binding.
//
// Names are resolved before execution: an instruction's operand is
// interned to a dense id when the instruction is written, LinkData interns
// each condition name into its block, and Set, SetFunc, Bind and PushCount
// intern the name they are given, so the engine indexes slots by id and
// never hashes or compares a string. A condition lookup tries a queued
// count first (it shadows any constant or closure for the name, even once
// exhausted), then a closure, then a constant; a name with no local
// binding delegates to the parent, and one bound nowhere reads false (a
// condition) or unbound (an address).
type Binding struct {
	slots  []slot
	gen    uint32
	parent *Binding
}

// NewBinding returns an empty binding. If parent is non-nil, lookups that
// miss locally are delegated to it, letting per-operation bindings layer
// over long-lived per-connection ones.
func NewBinding(parent *Binding) *Binding {
	return &Binding{gen: 1, parent: parent}
}

// Reset empties the binding in place in O(1) by moving to a new
// generation, keeping the slot storage (and each slot's count queue) for
// reuse — the per-event environment rebuild runs once per simulated
// event, so recycling one Binding per host avoids re-allocating them each
// time. The parent link is cleared too.
func (b *Binding) Reset() {
	b.gen++
	if b.gen == 0 {
		// The counter wrapped: a slot last written 2^32 generations ago
		// would look live again, so clear the stamps and start over.
		for i := range b.slots {
			b.slots[i].gen = 0
		}
		b.gen = 1
	}
	b.parent = nil
}

// slot returns the live slot of name for writing, growing the table when
// the name was interned after it was last sized.
func (b *Binding) slot(name string) *slot {
	id := valueSyms.intern(name)
	if int(id) >= len(b.slots) {
		// Size for every name interned so far (id among them), so a
		// binding grows about once.
		slots := make([]slot, valueSyms.size()+1)
		copy(slots, b.slots)
		b.slots = slots
	}
	if b.gen == 0 {
		b.gen = 1
	}
	s := &b.slots[id]
	if s.gen != b.gen {
		q := s.counts
		if q != nil {
			q.vals, q.head = q.vals[:0], 0
		}
		*s = slot{gen: b.gen, counts: q}
	}
	return s
}

// Set fixes the named condition to a constant. A queued count for the same
// name keeps shadowing it.
func (b *Binding) Set(name string, v bool) *Binding {
	s := b.slot(name)
	s.has |= hasCond
	s.val, s.fn = v, nil
	return b
}

// SetFunc binds the named condition to a closure evaluated on each query;
// use it to read live protocol state. A queued count for the same name
// keeps shadowing it.
func (b *Binding) SetFunc(name string, f func() bool) *Binding {
	s := b.slot(name)
	s.has |= hasCond
	s.fn = f
	return b
}

// Bind fixes the base address of the named data object, replacing any
// earlier binding of the name.
func (b *Binding) Bind(name string, addr uint64) *Binding {
	s := b.slot(name)
	s.has |= hasAddr
	s.addr = addr
	return b
}

// PushCount queues one execution of a counted do-while loop guarded by the
// named condition: the condition will read true n-1 times and then false, so
// the loop body runs n times (n must be >= 1; the model should guard
// zero-trip loops with a separate condition). Counts queue in FIFO order, so
// a caller invoking the same library model several times pushes one count
// per invocation, in call order.
func (b *Binding) PushCount(name string, n int) *Binding {
	s := b.slot(name)
	s.has |= hasCond | hasCount
	if s.counts == nil {
		s.counts = &countQueue{}
	}
	if n < 1 {
		n = 1
	}
	s.counts.vals = append(s.counts.vals, n-1)
	return b
}

// Counter returns a self-re-arming loop condition: each time the guarded
// do-while loop is entered, n() is evaluated against live protocol state and
// the condition then reads true n()-1 times and false once, so the body runs
// n() times. Bind it with SetFunc. Unlike PushCount it needs no per-call
// queuing, which makes it the right tool for conditions registered once at
// stack-construction time.
func Counter(n func() int) func() bool {
	remaining := -1
	return func() bool {
		if remaining < 0 {
			remaining = n() - 1
			if remaining < 0 {
				remaining = 0
			}
		}
		if remaining > 0 {
			remaining--
			return true
		}
		remaining = -1
		return false
	}
}

// find returns the live slot holding a binding of kind for id, searching
// the parent chain, or nil.
func (b *Binding) find(id int32, kind uint8) *slot {
	for ; b != nil; b = b.parent {
		if uint(id) < uint(len(b.slots)) {
			if s := &b.slots[id]; s.gen == b.gen && s.has&kind != 0 {
				return s
			}
		}
	}
	return nil
}

// cond evaluates the condition with id.
func (b *Binding) cond(id int32) bool {
	s := b.find(id, hasCond)
	switch {
	case s == nil:
		return false
	case s.has&hasCount != 0:
		return s.counts.next()
	case s.fn != nil:
		return s.fn()
	default:
		return s.val
	}
}

// addr resolves the data object with id to its bound base address.
func (b *Binding) addr(id int32) (uint64, bool) {
	if s := b.find(id, hasAddr); s != nil {
		return s.addr, true
	}
	return 0, false
}

// Cond returns the outcome of the named condition. Unknown names evaluate
// to false by convention, so models are authored with the exceptional
// outcome on the "true" side only where a binding exists.
func (b *Binding) Cond(name string) bool { return b.cond(valueSyms.lookup(name)) }

// Addr resolves the named data object to its bound base address. When ok
// is false the engine falls back to linker-assigned static storage.
func (b *Binding) Addr(name string) (base uint64, ok bool) {
	return b.addr(valueSyms.lookup(name))
}
