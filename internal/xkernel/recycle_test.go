//go:build !race

// The race detector's sync.Pool drops a random share of what is put back,
// so which buffers are recycled is not fixed there.

package xkernel

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestReleasedPoolBuffersComeBackZeroed: a pool built after another pool
// Released dirty buffers reuses them, zeroed and at full size, while its
// simulated state (addresses, Mallocs) is that of a pool on fresh
// buffers, and the released messages read as destroyed.
func TestReleasedPoolBuffersComeBackZeroed(t *testing.T) {
	// With collection off and one P, the next pool draws exactly the
	// buffers just released.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const payload, count = 256, 3

	dirty := NewPool(NewAllocator(0), payload, count)
	dirty.ShortCircuit = true
	msgs := make([]*Msg, count)
	released := map[*byte]bool{}
	for i := range msgs {
		msgs[i] = dirty.Get()
		if err := msgs[i].Append(bytes.Repeat([]byte{0xA5}, payload)); err != nil {
			t.Fatal(err)
		}
		for msgs[i].Push([]byte{0xA5}) == nil {
		}
		released[&msgs[i].buf[0]] = true
	}
	for _, m := range msgs {
		dirty.Refresh(m)
	}
	dirty.Release()
	if err := msgs[0].Push([]byte{1}); err != ErrMsgDead {
		t.Fatalf("push on a released pool's message: %v, want ErrMsgDead", err)
	}

	got := NewPool(NewAllocator(5), payload, count)
	want := NewPool(NewAllocator(5), payload, count)
	if got.Mallocs != want.Mallocs {
		t.Fatalf("mallocs %d, fresh %d", got.Mallocs, want.Mallocs)
	}
	reused := 0
	for i, m := range got.freeMsg {
		if released[&m.buf[0]] {
			reused++
		}
		if !bytes.Equal(m.buf, make([]byte, defaultHeadroom+payload)) {
			t.Fatalf("message %d: recycled buffer of %d bytes is not zeroed", i, len(m.buf))
		}
		if w := want.freeMsg[i]; m.Addr() != w.Addr() || m.Len() != 0 || m.Refs() != 1 {
			t.Fatalf("message %d: %v, fresh %v", i, m, w)
		}
	}
	if reused != count {
		t.Fatalf("%d of %d buffers reused", reused, count)
	}
}
