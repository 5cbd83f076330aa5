// Package lance models the AMD Am7990 LANCE Ethernet controller and its
// device driver as found in the DEC 3000/600: receive and transmit rings of
// ten-byte descriptors living in sparse TURBOchannel shared memory, frame
// buffers in the same sparse window, per-frame controller latency, and the
// driver split the paper describes — the traced transmit path (including the
// descriptor update that USC optimizes) and the untraced interrupt entry.
package lance

import (
	"fmt"

	"repro/internal/code"
	"repro/internal/netsim"
	"repro/internal/protocols/wire"
	"repro/internal/turbochannel"
	"repro/internal/usc"
	"repro/internal/xkernel"
)

const (
	ringSize  = 4
	descWords = 5 // ten bytes per LANCE descriptor
	bufBytes  = 1536
	// windowBytes is the shared window's payload: both rings'
	// descriptors, then both rings' buffers.
	windowBytes = 2*ringSize*descWords*2 + 2*ringSize*bufBytes

	// descriptor flag bits (word 1, high byte)
	flagOWN = 0x80
	flagSTP = 0x02
	flagENP = 0x01

	// interruptCycles is the untraced software cost of taking the
	// receive interrupt (context save, dispatch); ~3 µs.
	interruptCycles = 3 * netsim.CyclesPerMicrosecond
	// txDoneCycles is the untraced transmit-complete handling.
	txDoneCycles = 2 * netsim.CyclesPerMicrosecond
)

// DescriptorLayout is the USC description of a LANCE ring descriptor.
var DescriptorLayout = &usc.Layout{
	Name:  "lance_desc",
	Words: descWords,
	Fields: []usc.Field{
		{Name: "addrlo", Word: 0, Shift: 0, Bits: 16},
		{Name: "addrhi", Word: 1, Shift: 0, Bits: 8},
		{Name: "flags", Word: 1, Shift: 8, Bits: 8},
		{Name: "bcnt", Word: 2, Shift: 0, Bits: 16},
		{Name: "mcnt", Word: 3, Shift: 0, Bits: 16},
		{Name: "status", Word: 4, Shift: 0, Bits: 16},
	},
}

// Device is one LANCE adaptor and its driver state.
type Device struct {
	H    *xkernel.Host
	Link *netsim.Link
	Peer *Device
	MAC  wire.MACAddr
	// Up is the device-independent Ethernet half receiving frames.
	Up xkernel.Protocol
	// UseUSC selects direct sparse-memory descriptor updates.
	UseUSC bool
	// Pool provides the pre-allocated receive message buffers.
	Pool *xkernel.Pool

	region *turbochannel.Region
	txDesc [ringSize]*usc.Accessors
	rxDesc [ringSize]*usc.Accessors
	txSlot int
	rxSlot int

	// TxFrames and RxFrames count traffic; DescCopies counts whole-
	// descriptor copies the non-USC path performed.
	TxFrames   int
	RxFrames   int
	DescCopies int

	// Classify, when set (PIN/ALL configurations), validates that an
	// incoming frame follows the path the inlined code assumes; the
	// returned cycle cost is charged to the receive path. A frame that
	// fails classification would take the general (non-inlined) code in
	// a real system; here it is counted and processed normally.
	Classify func(frame []byte) (ok bool, cycles uint64)
	// ClassifierMisses counts frames that failed classification.
	ClassifierMisses int

	// lastTxLen and lastRxLen feed the copy-loop trip counts of the code
	// models.
	lastTxLen int
	lastRxLen int
}

// New builds a device on host h attached to link l.
func New(h *xkernel.Host, l *netsim.Link, mac wire.MACAddr, useUSC bool) *Device {
	d := &Device{
		H:      h,
		Link:   l,
		MAC:    mac,
		UseUSC: useUSC,
		Pool:   xkernel.NewPool(h.Alloc, bufBytes, ringSize),
		region: turbochannel.NewRegion(turbochannel.SparseBase, windowBytes),
	}
	for i := 0; i < ringSize; i++ {
		d.txDesc[i] = usc.MustCompile(DescriptorLayout, d.region, i*descWords)
		d.rxDesc[i] = usc.MustCompile(DescriptorLayout, d.region, (ringSize+i)*descWords)
		// Program the buffer addresses once, at initialization.
		d.txDesc[i].Set("addrlo", uint16(d.txBufOff(i)))
		d.rxDesc[i].Set("addrlo", uint16(d.rxBufOff(i)))
	}
	h.Graph.AddNode("LANCE")
	h.EnvHooks = append(h.EnvHooks, d.bindConds)
	return d
}

// descriptor dense byte offsets end at 2*ringSize*descWords*2; buffers
// follow, 16-byte aligned.
func (d *Device) txBufOff(slot int) int {
	return 2*ringSize*descWords*2 + slot*bufBytes
}

func (d *Device) rxBufOff(slot int) int {
	return 2*ringSize*descWords*2 + (ringSize+slot)*bufBytes
}

// Release hands the device's Go-side buffers back for reuse: the shared
// window's bytes and the receive pool's free message buffers (see
// turbochannel.Region and xkernel.Pool). Call it only once the simulation
// that used the device has finished; the device must not be used
// afterwards.
func (d *Device) Release() {
	d.region.Release()
	d.Pool.Release()
}

// Region exposes the sparse window (for tests).
func (d *Device) Region() *turbochannel.Region { return d.region }

// bindConds provides the driver model conditions for the current event.
func (d *Device) bindConds(env *code.Binding) {
	env.SetFunc("lance.rxcopy.more", code.Counter(func() int { return (d.lastRxLen + 7) / 8 }))
	env.SetFunc("lance.txcopy.more", code.Counter(func() int { return (d.lastTxLen + 7) / 8 }))
	env.Bind("lance.ring", d.region.WordAddr(0))
	env.Bind("lance.buf", d.region.BufAddr(d.txBufOff(0)))
}

// Transmit sends a frame: the traced driver path writes the frame into the
// next transmit buffer, updates the ring descriptor (directly via USC stubs
// or with the copy-in/copy-out dance), and hands the frame to the
// controller. Delivery and the transmit-complete interrupt happen after the
// controller and wire latency.
func (d *Device) Transmit(m *xkernel.Msg) error {
	if d.Peer == nil {
		return fmt.Errorf("lance: %s has no peer", d.H.Name)
	}
	frame := m.Bytes()
	if len(frame) > bufBytes {
		return fmt.Errorf("lance: frame of %d bytes exceeds buffer", len(frame))
	}
	n := len(frame)
	if n < wire.EthMinFrame {
		n = wire.EthMinFrame
	}
	d.lastTxLen = n
	slot := d.txSlot
	d.txSlot = (d.txSlot + 1) % ringSize

	// Copy the frame into the sparse buffer, zeroing the pad up to the
	// minimum size.
	buf := d.region.Buf(d.txBufOff(slot), n)
	clear(buf[copy(buf, frame):])

	// Update the descriptor.
	if d.UseUSC {
		d.txDesc[slot].Set("bcnt", uint16(n))
		d.txDesc[slot].Set("flags", flagOWN|flagSTP|flagENP)
	} else {
		d.DescCopies++
		usc.CopyDescriptor(DescriptorLayout, d.region, slot*descWords, func(dense []uint16) {
			dense[2] = uint16(n)
			dense[1] = (dense[1] & 0x00ff) | uint16(flagOWN|flagSTP|flagENP)<<8
		})
	}
	d.TxFrames++

	peer := d.Peer
	wireFrame := d.region.ReadBuf(d.txBufOff(slot), n)
	d.Link.Transmit(wireFrame, d.H.Elapsed(), peer.deliver, func() {
		// Transmit-complete interrupt: untraced housekeeping.
		d.H.CPU.AdvanceCycles(txDoneCycles)
		if d.UseUSC {
			d.txDesc[slot].Set("flags", flagSTP|flagENP)
		} else {
			d.DescCopies++
			usc.CopyDescriptor(DescriptorLayout, d.region, slot*descWords, func(dense []uint16) {
				dense[1] &= 0x00ff | uint16(flagSTP|flagENP)<<8
			})
		}
	})
	return nil
}

// deliver is called by the link when a frame arrives: the controller DMAs
// it into the next receive buffer and raises the receive interrupt. The
// interrupt entry is untraced; the traced path (ring processing, buffer
// shepherding, protocol processing) starts with the "lance_rx" model and
// runs up the protocol graph.
func (d *Device) deliver(frame []byte) {
	slot := d.rxSlot
	d.rxSlot = (d.rxSlot + 1) % ringSize
	d.region.WriteBuf(d.rxBufOff(slot), frame)
	if d.UseUSC {
		d.rxDesc[slot].Set("mcnt", uint16(len(frame)))
		d.rxDesc[slot].Set("flags", flagOWN)
	} else {
		usc.CopyDescriptor(DescriptorLayout, d.region, (ringSize+slot)*descWords, func(dense []uint16) {
			dense[3] = uint16(len(frame))
			dense[1] = (dense[1] & 0x00ff) | uint16(flagOWN)<<8
		})
	}
	d.RxFrames++
	d.lastRxLen = len(frame)

	// Interrupt entry (untraced).
	d.H.BeginEvent(frame)
	d.H.CPU.AdvanceCycles(interruptCycles)

	// Path-inlined configurations classify every frame before the
	// specialized code may run.
	if d.Classify != nil {
		ok, cycles := d.Classify(frame)
		d.H.CPU.AdvanceCycles(cycles)
		if !ok {
			d.ClassifierMisses++
		}
	}

	// Traced path: shepherd a message through the stack on a pool stack.
	d.H.Threads.Shepherd(func(stack uint64) {
		d.H.SetStack(stack)
		d.H.RunModel("lance_rx")
		m := d.Pool.Get()
		if err := m.Append(d.region.Buf(d.rxBufOff(slot), len(frame))); err != nil {
			return
		}
		if d.Up != nil {
			_ = d.Up.Demux(m)
		}
		// Refresh the shepherded buffer. This runs after any reply has
		// been handed to the controller, so its cost overlaps the wire
		// time and does not add to end-to-end latency — the §2.2.2
		// observation.
		d.Pool.Refresh(m)
		d.H.RunModel("lance_post")
	})
}
