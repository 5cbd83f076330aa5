package code

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
)

// symtab interns names to dense int32 ids. Ids start at 1, so the zero
// value of an id field never names a symbol: it means "unnamed". Tables
// only grow, and an id is never reused, so an id interned when one
// instruction was written stays valid in every Binding and every other
// program of the process. Lookups of an id or a name take no lock.
//
// Both directions are immutable snapshots behind atomic pointers:
// interning publishes longer copies. A process interns about a hundred
// names, but every Set, SetFunc and Bind of every event looks one up, so
// a plain map read beats a sync.Map's.
type symtab struct {
	ids atomic.Pointer[map[string]int32]
	mu  sync.Mutex // serializes assigning new ids
	// byID holds the name of id i at i-1.
	byID atomic.Pointer[[]string]
}

// lookup returns the id of name, or 0 if it was never interned.
func (t *symtab) lookup(name string) int32 {
	if ids := t.ids.Load(); ids != nil {
		return (*ids)[name]
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
	if id := t.lookup(name); id != 0 {
		return id
	}
	names := append(slices.Clip(t.names()), name)
	t.byID.Store(&names) // before the id, so whoever sees the id can read its name
	id := int32(len(names))
	ids := make(map[string]int32, len(names))
	if old := t.ids.Load(); old != nil {
		maps.Copy(ids, *old)
	}
	ids[name] = id
	t.ids.Store(&ids)
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
