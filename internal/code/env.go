package code

// Env binds a code model's symbolic names to run-time protocol state. The
// engine consults it for every conditional branch and for the base address
// of every named memory operand; this is how the functional Go protocol
// implementations drive the modeled instruction stream.
type Env interface {
	// Cond returns the outcome of the named condition. Unknown names
	// evaluate to false by convention, so models are authored with the
	// exceptional outcome on the "true" side only where a binding exists.
	Cond(name string) bool
	// Addr resolves the named data object to its base address. When ok
	// is false the engine falls back to linker-assigned static storage.
	Addr(name string) (base uint64, ok bool)
}

// stackName is the distinguished operand naming the current thread stack;
// it is bound and queried on the hottest engine path (every unnamed memory
// operand), so Binding keeps it in a field rather than the address list.
const stackName = "$stack"

// condEntry is one condition binding. Exactly one representation is live:
// a queued count (consulted first, matching the historical lookup order),
// a closure, or a constant.
type condEntry struct {
	queue *countQueue
	fn    func() bool
	val   bool
}

// Binding is the standard Env implementation: a mutable set of condition
// values/closures, queued loop counts, and address bindings. The zero value
// is empty but usable after the first Set call; NewBinding is clearer.
//
// All three condition forms share one map so that Cond — which the engine
// consults for every conditional branch — costs a single probe. Address
// bindings are few (a driver ring and buffer, a protocol state block), and
// Addr runs for every named memory operand, most of which miss and fall
// back to static storage, so they live in a short slice scanned linearly
// rather than a map that hashes the name on every probe.
type Binding struct {
	conds  map[string]condEntry
	addrs  []addrEntry
	parent Env

	stack    uint64
	hasStack bool
}

// NewBinding returns an empty binding. If parent is non-nil, lookups that
// miss locally are delegated to it, letting per-operation bindings layer
// over long-lived per-connection ones.
func NewBinding(parent Env) *Binding {
	return &Binding{
		conds:  map[string]condEntry{},
		parent: parent,
	}
}

// addrEntry is one address binding.
type addrEntry struct {
	name string
	addr uint64
}

// Reset empties the binding in place, keeping the allocated map and
// address slice for reuse — the per-event environment rebuild runs once
// per simulated event, so recycling one Binding per host avoids
// re-allocating them each time. The parent link is cleared too.
func (b *Binding) Reset() {
	clear(b.conds)
	b.addrs = b.addrs[:0]
	b.parent = nil
	b.stack = 0
	b.hasStack = false
}

// Set fixes the named condition to a constant. A queued count for the same
// name keeps shadowing it, as it always has.
func (b *Binding) Set(name string, v bool) *Binding {
	e := b.conds[name]
	e.val, e.fn = v, nil
	b.conds[name] = e
	return b
}

// SetFunc binds the named condition to a closure evaluated on each query;
// use it to read live protocol state. A queued count for the same name
// keeps shadowing it, as it always has.
func (b *Binding) SetFunc(name string, f func() bool) *Binding {
	e := b.conds[name]
	e.fn = f
	b.conds[name] = e
	return b
}

// Bind fixes the base address of the named data object, replacing any
// earlier binding of the name.
func (b *Binding) Bind(name string, addr uint64) *Binding {
	if name == stackName {
		b.stack = addr
		b.hasStack = true
		return b
	}
	for i := range b.addrs {
		if b.addrs[i].name == name {
			b.addrs[i].addr = addr
			return b
		}
	}
	b.addrs = append(b.addrs, addrEntry{name, addr})
	return b
}

// PushCount queues one execution of a counted do-while loop guarded by the
// named condition: the condition will read true n-1 times and then false, so
// the loop body runs n times (n must be >= 1; the model should guard
// zero-trip loops with a separate condition). Counts queue in FIFO order, so
// a caller invoking the same library model several times pushes one count
// per invocation, in call order.
func (b *Binding) PushCount(name string, n int) *Binding {
	e := b.conds[name]
	if e.queue == nil {
		e.queue = &countQueue{}
		b.conds[name] = e
	}
	if n < 1 {
		n = 1
	}
	e.queue.vals = append(e.queue.vals, n-1)
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

type countQueue struct {
	vals []int
}

// next returns true while the current count has iterations left, consuming
// one; when it reaches zero the count is popped and false returned.
func (q *countQueue) next() bool {
	if len(q.vals) == 0 {
		return false
	}
	if q.vals[0] > 0 {
		q.vals[0]--
		return true
	}
	q.vals = q.vals[1:]
	return false
}

// Cond implements Env.
func (b *Binding) Cond(name string) bool {
	if e, ok := b.conds[name]; ok {
		// A queued count shadows any value or closure for the name,
		// even once exhausted — the historical lookup order.
		if e.queue != nil {
			return e.queue.next()
		}
		if e.fn != nil {
			return e.fn()
		}
		return e.val
	}
	if b.parent != nil {
		return b.parent.Cond(name)
	}
	return false
}

// Addr implements Env.
func (b *Binding) Addr(name string) (uint64, bool) {
	if name == stackName {
		if b.hasStack {
			return b.stack, true
		}
	} else {
		for i := range b.addrs {
			if b.addrs[i].name == name {
				return b.addrs[i].addr, true
			}
		}
	}
	if b.parent != nil {
		return b.parent.Addr(name)
	}
	return 0, false
}
