package code

import (
	"slices"
	"sync"
	"sync/atomic"
)

// symtab interns names to dense int32 ids. Ids start at 1, so the zero
// value of an id field never names a symbol: it means "unnamed". Tables
// only grow, and an id is never reused, so an id interned when one
// instruction was written stays valid in every Binding and every other
// program of the process. Lookups of an id or a name take no lock.
type symtab struct {
	ids sync.Map   // string -> int32
	mu  sync.Mutex // serializes assigning new ids
	// byID holds the name of id i at i-1. Interning publishes a new,
	// longer copy, so a reader never sees a slice being appended to; a
	// run interns about a hundred names, so the copies cost nothing.
	byID atomic.Pointer[[]string]
}

// lookup returns the id of name, or 0 if it was never interned.
func (t *symtab) lookup(name string) int32 {
	if id, ok := t.ids.Load(name); ok {
		return id.(int32)
	}
	return 0
}

// intern returns the id of name, assigning the next free one on first use.
// The empty name is never interned: its id is 0.
func (t *symtab) intern(name string) int32 {
	if id := t.lookup(name); id != 0 || name == "" {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids.Load(name); ok {
		return id.(int32)
	}
	names := append(slices.Clip(t.names()), name)
	t.byID.Store(&names) // before the id, so whoever sees the id can read its name
	id := int32(len(names))
	t.ids.Store(name, id)
	return id
}

func (t *symtab) names() []string {
	if p := t.byID.Load(); p != nil {
		return *p
	}
	return nil
}

// name returns the name interned as id, or "" for 0 or an id never handed
// out.
func (t *symtab) name(id int32) string {
	if names := t.names(); id > 0 && int(id) <= len(names) {
		return names[id-1]
	}
	return ""
}

// size returns the largest id handed out so far.
func (t *symtab) size() int32 { return int32(len(t.names())) }

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
