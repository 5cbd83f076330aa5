package lance

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/netsim"
	"repro/internal/protocols/wire"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/xkernel"
)

type upSink struct{ frames [][]byte }

func (u *upSink) Name() string { return "SINK" }
func (u *upSink) Demux(m *xkernel.Msg) error {
	u.frames = append(u.frames, append([]byte(nil), m.Bytes()...))
	return nil
}

func pair(t *testing.T, useUSC bool) (*Device, *Device, *upSink, *xkernel.EventQueue) {
	t.Helper()
	q := xkernel.NewEventQueue()
	link := netsim.NewLink(q)
	mk := func(name string) *xkernel.Host {
		hm := mem.New(arch.DEC3000_600())
		return xkernel.NewHost(name, cpu.New(hm), hm, nil, q, 0)
	}
	a := New(mk("a"), link, wire.MACAddr{2, 0, 0, 0, 0, 1}, useUSC)
	b := New(mk("b"), link, wire.MACAddr{2, 0, 0, 0, 0, 2}, useUSC)
	a.Peer, b.Peer = b, a
	sink := &upSink{}
	b.Up = sink
	return a, b, sink, q
}

func TestTransmitDeliversThroughSparseMemory(t *testing.T) {
	for _, useUSC := range []bool{true, false} {
		a, b, sink, q := pair(t, useUSC)
		frame := append([]byte{0xDE, 0xAD}, make([]byte, 70)...)
		m := xkernel.NewMsgData(a.H.Alloc, frame)
		a.H.BeginEvent(nil)
		if err := a.Transmit(m); err != nil {
			t.Fatal(err)
		}
		q.Run(10)
		if len(sink.frames) != 1 {
			t.Fatalf("useUSC=%v: delivered %d frames", useUSC, len(sink.frames))
		}
		if !bytes.Equal(sink.frames[0][:len(frame)], frame) {
			t.Fatalf("useUSC=%v: frame corrupted through the ring", useUSC)
		}
		if a.TxFrames != 1 || b.RxFrames != 1 {
			t.Fatalf("counters: tx=%d rx=%d", a.TxFrames, b.RxFrames)
		}
	}
}

func TestMinimumFramePadding(t *testing.T) {
	a, _, sink, q := pair(t, true)
	a.H.BeginEvent(nil)
	m := xkernel.NewMsgData(a.H.Alloc, []byte{1, 2, 3})
	if err := a.Transmit(m); err != nil {
		t.Fatal(err)
	}
	q.Run(10)
	if len(sink.frames) != 1 || len(sink.frames[0]) != wire.EthMinFrame {
		t.Fatalf("short frame not padded to minimum: %d bytes", len(sink.frames[0]))
	}
}

// TestPadZeroedOverPreviousFrame: a short frame sent from a transmit
// buffer that last held a longer frame goes out with a zero pad, not the
// longer frame's tail.
func TestPadZeroedOverPreviousFrame(t *testing.T) {
	a, _, sink, q := pair(t, true)
	for i := 0; i <= ringSize; i++ {
		frame := bytes.Repeat([]byte{0xFF}, 2*wire.EthMinFrame)
		if i == ringSize { // back in slot 0
			frame = []byte{1, 2, 3}
		}
		a.H.BeginEvent(nil)
		if err := a.Transmit(xkernel.NewMsgData(a.H.Alloc, frame)); err != nil {
			t.Fatal(err)
		}
		q.Run(10)
	}
	want := append([]byte{1, 2, 3}, make([]byte, wire.EthMinFrame-3)...)
	if got := sink.frames[ringSize]; !bytes.Equal(got, want) {
		t.Fatalf("short frame after a long one in the same slot: % x", got)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	a, _, _, _ := pair(t, true)
	a.H.BeginEvent(nil)
	m := xkernel.NewMsgData(a.H.Alloc, make([]byte, 2000))
	if err := a.Transmit(m); err == nil {
		t.Fatal("2000-byte frame accepted")
	}
}

func TestNoPeerErrors(t *testing.T) {
	q := xkernel.NewEventQueue()
	hm := mem.New(arch.DEC3000_600())
	h := xkernel.NewHost("solo", cpu.New(hm), hm, nil, q, 0)
	d := New(h, netsim.NewLink(q), wire.MACAddr{2, 0, 0, 0, 0, 9}, true)
	h.BeginEvent(nil)
	if err := d.Transmit(xkernel.NewMsgData(h.Alloc, []byte{1})); err == nil {
		t.Fatal("transmit without a peer accepted")
	}
}

func TestCopyStyleCopiesDescriptors(t *testing.T) {
	a, _, _, q := pair(t, false)
	a.H.BeginEvent(nil)
	if err := a.Transmit(xkernel.NewMsgData(a.H.Alloc, []byte{1})); err != nil {
		t.Fatal(err)
	}
	q.Run(10)
	if a.DescCopies == 0 {
		t.Fatal("copy-style driver performed no descriptor copies")
	}
	aUSC, _, _, q2 := pair(t, true)
	aUSC.H.BeginEvent(nil)
	if err := aUSC.Transmit(xkernel.NewMsgData(aUSC.H.Alloc, []byte{1})); err != nil {
		t.Fatal(err)
	}
	q2.Run(10)
	if aUSC.DescCopies != 0 {
		t.Fatal("USC driver copied descriptors")
	}
}

func TestRingWrapsAround(t *testing.T) {
	a, _, sink, q := pair(t, true)
	for i := 0; i < 2*ringSize; i++ {
		a.H.BeginEvent(nil)
		if err := a.Transmit(xkernel.NewMsgData(a.H.Alloc, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
		q.Run(10)
	}
	if len(sink.frames) != 2*ringSize {
		t.Fatalf("delivered %d frames through a %d-slot ring", len(sink.frames), ringSize)
	}
	for i, f := range sink.frames {
		if f[0] != byte(i) {
			t.Fatalf("frame %d out of order or corrupted", i)
		}
	}
}

func TestClassifierChargesAndCounts(t *testing.T) {
	a, b, _, q := pair(t, true)
	charged := false
	b.Classify = func(frame []byte) (bool, uint64) {
		charged = true
		return false, 300
	}
	before := b.H.CPU.Now()
	a.H.BeginEvent(nil)
	if err := a.Transmit(xkernel.NewMsgData(a.H.Alloc, []byte{7})); err != nil {
		t.Fatal(err)
	}
	q.Run(10)
	if !charged {
		t.Fatal("classifier not consulted")
	}
	if b.ClassifierMisses != 1 {
		t.Fatalf("misses = %d", b.ClassifierMisses)
	}
	if b.H.CPU.Now()-before < 300 {
		t.Fatal("classifier cycles not charged")
	}
}

func TestDescriptorLayoutValid(t *testing.T) {
	if err := DescriptorLayout.Validate(); err != nil {
		t.Fatal(err)
	}
}
