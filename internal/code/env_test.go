package code

import "testing"

// TestBindingAddrTable covers the address bindings: overwrite in place,
// the $stack field, delegation to the parent on a local miss, and Reset.
func TestBindingAddrTable(t *testing.T) {
	type want struct {
		addr uint64
		ok   bool
	}
	for _, tc := range []struct {
		name   string
		parent *Binding
		setup  func(b *Binding)
		want   map[string]want
	}{
		{
			name:  "empty",
			setup: func(b *Binding) {},
			want:  map[string]want{"a": {}, stackName: {}},
		},
		{
			name:  "bind",
			setup: func(b *Binding) { b.Bind("a", 0x10).Bind("b", 0x20) },
			want:  map[string]want{"a": {0x10, true}, "b": {0x20, true}, "c": {}},
		},
		{
			name:  "overwrite",
			setup: func(b *Binding) { b.Bind("a", 0x10).Bind("b", 0x20).Bind("a", 0x30) },
			want:  map[string]want{"a": {0x30, true}, "b": {0x20, true}},
		},
		{
			name:  "stack",
			setup: func(b *Binding) { b.Bind(stackName, 0x40).Bind("a", 0x10).Bind(stackName, 0x50) },
			want:  map[string]want{stackName: {0x50, true}, "a": {0x10, true}},
		},
		{
			name:   "parent fallback",
			parent: NewBinding(nil).Bind("a", 0x1).Bind("p", 0x2).Bind(stackName, 0x3),
			setup:  func(b *Binding) { b.Bind("a", 0x10) },
			want:   map[string]want{"a": {0x10, true}, "p": {0x2, true}, stackName: {0x3, true}, "q": {}},
		},
		{
			name:   "local stack shadows parent",
			parent: NewBinding(nil).Bind(stackName, 0x3),
			setup:  func(b *Binding) { b.Bind(stackName, 0x60) },
			want:   map[string]want{stackName: {0x60, true}},
		},
		{
			name:   "reset",
			parent: NewBinding(nil).Bind("p", 0x2),
			setup: func(b *Binding) {
				b.Bind("a", 0x10).Bind(stackName, 0x40).Set("c", true)
				b.Reset()
				b.Bind("b", 0x20)
			},
			want: map[string]want{"a": {}, "b": {0x20, true}, "p": {}, stackName: {}},
		},
	} {
		b := NewBinding(nil)
		if tc.parent != nil {
			b = NewBinding(tc.parent)
		}
		tc.setup(b)
		for name, w := range tc.want {
			if a, ok := b.Addr(name); a != w.addr || ok != w.ok {
				t.Errorf("%s: Addr(%q) = %#x, %v; want %#x, %v", tc.name, name, a, ok, w.addr, w.ok)
			}
		}
	}
}
