package code

import (
	"sync"
	"sync/atomic"
)

// symtab interns names to dense int32 ids. Ids start at 1, so the zero
// value of an id field never names a symbol: it means "unnamed" or "not
// resolved yet". Tables only grow, and an id is never reused, so an id
// computed by one program's LinkData stays valid in every Binding and
// every other program of the process. Lookups of names already interned
// take no lock.
type symtab struct {
	ids sync.Map     // string -> int32
	mu  sync.Mutex   // serializes assigning new ids
	n   atomic.Int32 // ids handed out
}

// lookup returns the id of name, or 0 if it was never interned.
func (t *symtab) lookup(name string) int32 {
	if id, ok := t.ids.Load(name); ok {
		return id.(int32)
	}
	return 0
}

// intern returns the id of name, assigning the next free one on first use.
func (t *symtab) intern(name string) int32 {
	if id := t.lookup(name); id != 0 {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids.Load(name); ok {
		return id.(int32)
	}
	id := t.n.Add(1)
	t.ids.Store(name, id)
	return id
}

// size returns the largest id handed out so far.
func (t *symtab) size() int32 { return t.n.Load() }

// The process-wide symbol tables. funcSyms names functions, so a
// Program's placements can be a slice indexed by callee id; valueSyms
// names data objects and branch conditions, the two things a Binding
// binds, so one Binding slot serves both.
var (
	funcSyms  symtab
	valueSyms symtab
)

// stackID is the id of stackName, interned first so every Binding can
// reach it without a lookup.
var stackID = valueSyms.intern(stackName)
