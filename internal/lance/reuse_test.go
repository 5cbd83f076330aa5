package lance_test

import (
	"bytes"
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/arch"
	"repro/internal/lance"
	"repro/internal/netsim"
	"repro/internal/protocols/wire"
	"repro/internal/serve"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/xkernel"
)

// window returns the shared window of a device built now, as driver
// initialization leaves it.
func window(t *testing.T) []byte {
	t.Helper()
	q := xkernel.NewEventQueue()
	hm := mem.New(arch.DEC3000_600())
	h := xkernel.NewHost("h", cpu.New(hm), hm, nil, q, 0)
	d := lance.New(h, netsim.NewLink(q), wire.MACAddr{2, 0, 0, 0, 0, 1}, true)
	r := d.Region()
	w := r.ReadBuf(0, r.DenseLen())
	d.Release()
	return w
}

// TestReuseLeavesNoTrace: devices that draw their shared window and
// receive buffers from pools filled with dirty bytes must compute exactly
// what devices on fresh buffers compute: the documents of a quick Table-4
// sweep of both stacks and of a three-model machine study are
// byte-identical, and a device's window reads as a fresh device's does.
func TestReuseLeavesNoTrace(t *testing.T) {
	specs := []serve.Spec{
		{Kind: "table", Table: 4},
		{Kind: "machines", Models: "dec3000,l1-4way,victim8"},
	}
	docs := func() [][]byte {
		var out [][]byte
		for _, s := range specs {
			doc, err := serve.Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			b, err := doc.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b)
		}
		return out
	}
	// Two collections empty the recycling pools, so the reference starts
	// from fresh buffers.
	runtime.GC()
	runtime.GC()
	freshWindow := window(t)
	fresh := docs()

	// With collection off, the dirty buffers stay pooled until drawn; on
	// one P, the next device draws the window just poisoned.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	procs := runtime.GOMAXPROCS(1)
	lance.PoisonBufferPools(1, 0xA5)
	recycled := window(t)
	runtime.GOMAXPROCS(procs)
	if !bytes.Equal(recycled, freshWindow) {
		t.Fatal("a device on a recycled window reads differently from a fresh one")
	}
	lance.PoisonBufferPools(64, 0xA5)
	for i, b := range docs() {
		if !bytes.Equal(b, fresh[i]) {
			t.Errorf("%+v: document on recycled buffers differs from the one on fresh buffers", specs[i])
		}
	}
}
