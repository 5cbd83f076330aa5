// Package rpc implements the paper's second test configuration (Figure 1,
// right): a Sprite-style remote procedure call facility decomposed, in the
// x-kernel manner, into many small protocols — XRPCTEST over MSELECT over
// VCHAN over CHAN over BID over BLAST — riding on the shared VNET/ETH/LANCE
// substrate. The decomposition is what makes this stack interesting for the
// paper: many small functions and deep call chains, the structure that
// cloning and path-inlining help most.
package rpc

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/protocols/tcpip"
	"repro/internal/protocols/wire"
	"repro/internal/xkernel"
)

// Blast provides message fragmentation with NACK-based selective
// retransmission. Latency-sized messages travel as a single fragment — the
// fast path; larger messages are split at the Ethernet MTU and reassembled,
// with the receiver NACKing missing fragments after a timeout.
type Blast struct {
	H    *xkernel.Host
	VNet *tcpip.VNet
	Peer wire.IPAddr

	uppers map[uint16]xkernel.Protocol

	nextMsgID uint32
	// retained holds recently sent messages for NACK service.
	retained map[uint32][][]byte
	// reasm holds partially received multi-fragment messages.
	reasm map[uint32]*blastReasm

	// NackTimeoutCycles arms the hole-detection timer.
	NackTimeoutCycles uint64

	// Stats. Abandoned counts reassemblies given up after the NACK cap.
	FragsOut, FragsIn, Nacks, NackResends, SingleFrag, Abandoned int
}

type blastReasm struct {
	parts map[uint16][]byte
	total uint16
	proto uint16
	timer *xkernel.TimerEvent
	nacks int // NACKs sent for this message so far
}

// blastMaxNacks bounds NACK retries per message: a corrupted header can
// announce fragments that will never exist, and without a cap the NACK
// timer would re-arm forever. Past the cap the partial message is abandoned
// (the request/reply layer above recovers by retransmitting).
const blastMaxNacks = 8

// blastMaxFrag is the largest fragment payload.
const blastMaxFrag = wire.EthMTU - wire.BlastHeaderLen

// blastNackProto is the reserved upper-protocol id for NACK control
// messages.
const blastNackProto = 0xffff

// NewBlast builds the fragmentation layer over vnet.
func NewBlast(h *xkernel.Host, v *tcpip.VNet, peer wire.IPAddr) *Blast {
	b := &Blast{
		H: h, VNet: v, Peer: peer,
		uppers:            map[uint16]xkernel.Protocol{},
		retained:          map[uint32][][]byte{},
		reasm:             map[uint32]*blastReasm{},
		NackTimeoutCycles: 50_000 * netsim.CyclesPerMicrosecond,
	}
	h.Graph.Connect("BLAST", "VNET")
	return b
}

// Name implements xkernel.Protocol.
func (b *Blast) Name() string { return "BLAST" }

// Register installs the protocol above BLAST for the given id.
func (b *Blast) Register(proto uint16, up xkernel.Protocol) {
	b.uppers[proto] = up
	b.H.Graph.Connect(up.Name(), "BLAST")
}

// Push fragments and transmits a message.
func (b *Blast) Push(m *xkernel.Msg, proto uint16) error {
	b.nextMsgID++
	id := b.nextMsgID
	data := m.Bytes()
	n := (len(data) + blastMaxFrag - 1) / blastMaxFrag
	if n == 0 {
		n = 1
	}
	if n == 1 {
		b.SingleFrag++
	}
	var frags [][]byte
	for i := 0; i < n; i++ {
		lo := i * blastMaxFrag
		hi := lo + blastMaxFrag
		if hi > len(data) {
			hi = len(data)
		}
		h := wire.BlastHeader{
			MsgID:    id,
			FragIdx:  uint16(i),
			NumFrags: uint16(n),
			Len:      uint16(hi - lo),
			Proto:    proto,
		}
		frag := append(h.Marshal(), data[lo:hi]...)
		frags = append(frags, frag)
	}
	b.retained[id] = frags
	// Bound retention: drop old messages (the higher layers recover).
	if len(b.retained) > 8 {
		for k := range b.retained {
			if k+8 < id {
				delete(b.retained, k)
			}
		}
	}
	for _, frag := range frags {
		if err := b.sendFrag(frag); err != nil {
			return err
		}
	}
	return nil
}

func (b *Blast) sendFrag(frag []byte) error {
	b.FragsOut++
	fm := xkernel.NewMsgData(b.H.Alloc, frag)
	return b.VNet.Push(fm, b.Peer, wire.EtherTypeXRPC)
}

// Demux reassembles fragments and dispatches complete messages.
func (b *Blast) Demux(m *xkernel.Msg) error {
	raw, err := m.Pop(wire.BlastHeaderLen)
	if err != nil {
		return err
	}
	h, err := wire.UnmarshalBlast(raw)
	if err != nil {
		return err
	}
	if err := m.Truncate(intMin(int(h.Len), m.Len())); err != nil {
		return err
	}
	b.FragsIn++

	if h.Proto == blastNackProto {
		return b.handleNack(h.MsgID, m.Bytes())
	}

	if h.NumFrags <= 1 {
		// Single-fragment fast path.
		return b.deliver(h.Proto, m)
	}

	r := b.reasm[h.MsgID]
	if r == nil {
		r = &blastReasm{parts: map[uint16][]byte{}, total: h.NumFrags, proto: h.Proto}
		b.reasm[h.MsgID] = r
		msgID := h.MsgID
		r.timer = b.H.Queue.Schedule(b.NackTimeoutCycles, func() { b.sendNack(msgID) })
	}
	r.parts[h.FragIdx] = append([]byte(nil), m.Bytes()...)
	if len(r.parts) < int(r.total) {
		return nil
	}
	// Complete: cancel the NACK timer and deliver.
	if r.timer != nil {
		r.timer.Cancel()
	}
	delete(b.reasm, h.MsgID)
	var data []byte
	for i := uint16(0); i < r.total; i++ {
		data = append(data, r.parts[i]...)
	}
	return b.deliver(r.proto, xkernel.NewMsgData(b.H.Alloc, data))
}

func (b *Blast) deliver(proto uint16, m *xkernel.Msg) error {
	up, ok := b.uppers[proto]
	if !ok {
		return fmt.Errorf("blast: no protocol %d", proto)
	}
	return up.Demux(m)
}

// sendNack asks the sender to resend the fragments still missing, giving
// up on the message entirely once the NACK cap is reached.
func (b *Blast) sendNack(msgID uint32) {
	r := b.reasm[msgID]
	if r == nil {
		return
	}
	if r.nacks >= blastMaxNacks {
		b.Abandoned++
		delete(b.reasm, msgID)
		return
	}
	r.nacks++
	b.Nacks++
	b.H.BeginEvent(nil)
	var missing []byte
	for i := uint16(0); i < r.total; i++ {
		if _, ok := r.parts[i]; !ok {
			missing = append(missing, byte(i>>8), byte(i))
		}
	}
	h := wire.BlastHeader{MsgID: msgID, NumFrags: 1, Len: uint16(len(missing)), Proto: blastNackProto}
	_ = b.sendFrag(append(h.Marshal(), missing...))
	// Re-arm in case the resends are lost too.
	r.timer = b.H.Queue.Schedule(b.NackTimeoutCycles, func() { b.sendNack(msgID) })
}

// handleNack resends the requested fragments of a retained message.
func (b *Blast) handleNack(msgID uint32, missing []byte) error {
	frags, ok := b.retained[msgID]
	if !ok {
		return fmt.Errorf("blast: NACK for unretained message %d", msgID)
	}
	for i := 0; i+1 < len(missing); i += 2 {
		idx := int(missing[i])<<8 | int(missing[i+1])
		if idx < len(frags) {
			b.NackResends++
			if err := b.sendFrag(frags[idx]); err != nil {
				return err
			}
		}
	}
	return nil
}

func intMin(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Bid stamps messages with boot identifiers so that a rebooted peer is
// detected instead of silently mixing pre- and post-reboot RPC state.
type Bid struct {
	H  *xkernel.Host
	Dn *Blast
	Up xkernel.Protocol

	LocalBoot uint32
	peerBoot  uint32 // learned from traffic; 0 = unknown

	// StaleDrops counts messages rejected for a boot-id mismatch;
	// DstRepairs counts messages accepted despite a damaged destination
	// boot id because the source matched the known incarnation.
	StaleDrops, DstRepairs int
}

// bidProto is BID's protocol id above BLAST.
const bidProto = 1

// NewBid builds the boot-id layer.
func NewBid(h *xkernel.Host, dn *Blast, bootID uint32) *Bid {
	b := &Bid{H: h, Dn: dn, LocalBoot: bootID}
	dn.Register(bidProto, b)
	h.Graph.Connect("BID", "BLAST")
	return b
}

// Name implements xkernel.Protocol.
func (b *Bid) Name() string { return "BID" }

// Push stamps and forwards a message.
func (b *Bid) Push(m *xkernel.Msg) error {
	h := wire.BidHeader{SrcBootID: b.LocalBoot, DstBootID: b.peerBoot}
	if err := m.Push(h.Marshal()); err != nil {
		return err
	}
	return b.Dn.Push(m, bidProto)
}

// Demux verifies boot ids and forwards upwards.
func (b *Bid) Demux(m *xkernel.Msg) error {
	raw, err := m.Pop(wire.BidHeaderLen)
	if err != nil {
		return err
	}
	h, err := wire.UnmarshalBid(raw)
	if err != nil {
		return err
	}
	if h.DstBootID != 0 && h.DstBootID != b.LocalBoot {
		if b.peerBoot != 0 && h.SrcBootID == b.peerBoot {
			// The source is the incarnation we already know, so the bad
			// destination id is frame damage (or the peer's corrupted
			// view of us), not a reboot: had we actually rebooted, our
			// peerBoot would have reset to 0. Accept the message — our
			// reply's SrcBootID lets the peer's adoption logic repair
			// its view. Dropping here instead would wedge the pair: the
			// peer can only relearn our boot id from traffic it never
			// receives.
			b.DstRepairs++
		} else {
			// The peer believes it is talking to a previous incarnation.
			b.StaleDrops++
			return fmt.Errorf("bid: stale destination boot id %d", h.DstBootID)
		}
	}
	if b.peerBoot != 0 && h.SrcBootID != b.peerBoot {
		// The peer's incarnation changed: reject this message but adopt
		// the new boot id, the Sprite behaviour on reboot detection. The
		// adoption also makes the layer self-healing when a corrupted
		// frame poisons peerBoot — the next genuine message restores it
		// at the cost of one more drop, instead of wedging the channel
		// forever.
		b.StaleDrops++
		old := b.peerBoot
		b.peerBoot = h.SrcBootID
		return fmt.Errorf("bid: peer rebooted (boot id %d -> %d)", old, h.SrcBootID)
	}
	b.peerBoot = h.SrcBootID
	return b.Up.Demux(m)
}

// Chan provides at-most-once request-reply channels: the client thread
// blocks until the matching reply arrives (via the thread manager's
// continuations), requests are retransmitted on timeout, and the server
// caches the last reply per channel to answer duplicates.
type Chan struct {
	H  *xkernel.Host
	Dn *Bid
	Up xkernel.Protocol

	channels map[uint32]*Channel

	// RetransTimeoutCycles is the constant per-call request
	// retransmission timeout (no backoff).
	RetransTimeoutCycles uint64

	// Stats.
	Calls, Replies, Retransmits, DupRequests int
}

// Channel is one request-reply channel.
type Channel struct {
	C   *Chan
	ID  uint32
	seq uint32

	// client side
	waiting *xkernel.BlockedThread
	pending func(reply []byte)
	timer   *xkernel.TimerEvent
	lastReq []byte

	// server side
	lastSeqSeen uint32
	cachedReply []byte
}

// NewChan builds the channel layer.
func NewChan(h *xkernel.Host, dn *Bid) *Chan {
	c := &Chan{
		H: h, Dn: dn,
		channels:             map[uint32]*Channel{},
		RetransTimeoutCycles: 100_000 * netsim.CyclesPerMicrosecond,
	}
	dn.Up = c
	h.Graph.Connect("CHAN", "BID")
	return c
}

// Name implements xkernel.Protocol.
func (c *Chan) Name() string { return "CHAN" }

// Channel returns (creating on demand) the channel with the given id.
func (c *Chan) Channel(id uint32) *Channel {
	ch := c.channels[id]
	if ch == nil {
		ch = &Channel{C: c, ID: id}
		c.channels[id] = ch
	}
	return ch
}

// Call sends a request on the channel and invokes done with the reply body
// when it arrives; the calling thread blocks meanwhile (continuation-style).
func (ch *Channel) Call(payload []byte, done func(reply []byte)) error {
	if ch.waiting != nil {
		return fmt.Errorf("chan %d: call already outstanding", ch.ID)
	}
	c := ch.C
	c.Calls++
	ch.seq++
	h := wire.ChanHeader{ChanID: ch.ID, Seq: ch.seq, Kind: wire.ChanRequest}
	req := append(h.Marshal(), payload...)
	ch.lastReq = req
	ch.pending = done
	ch.waiting = c.H.Threads.Block(c.H.CurrentStack, func(stack uint64) {
		c.H.SetStack(stack)
	})
	ch.armRetransmit()
	return c.send(req)
}

func (ch *Channel) armRetransmit() {
	if ch.timer != nil {
		ch.timer.Cancel()
	}
	c := ch.C
	ch.timer = c.H.Queue.Schedule(c.RetransTimeoutCycles, func() {
		if ch.pending == nil {
			return
		}
		c.Retransmits++
		c.H.BeginEvent(nil)
		_ = c.send(ch.lastReq)
		ch.armRetransmit()
	})
}

func (c *Chan) send(pdu []byte) error {
	m := xkernel.NewMsgData(c.H.Alloc, pdu)
	return c.Dn.Push(m)
}

// Demux processes requests (server) and replies (client).
func (c *Chan) Demux(m *xkernel.Msg) error {
	raw, err := m.Pop(wire.ChanHeaderLen)
	if err != nil {
		return err
	}
	h, err := wire.UnmarshalChan(raw)
	if err != nil {
		return err
	}
	ch := c.Channel(h.ChanID)
	switch h.Kind {
	case wire.ChanRequest:
		switch {
		case h.Seq == ch.lastSeqSeen && ch.cachedReply != nil:
			// Duplicate: replay the cached reply (at-most-once).
			c.DupRequests++
			return c.send(ch.cachedReply)
		case h.Seq == ch.lastSeqSeen+1:
			// In sequence: a channel carries one blocking call at a
			// time, so genuine requests step the sequence number by
			// exactly one. Accepting arbitrary forward jumps would
			// let a corrupted header poison lastSeqSeen, after which
			// every genuine retransmission reads as an ancient
			// duplicate and the channel wedges.
			ch.lastSeqSeen = h.Seq
			m.NetSrc = h.ChanID // channel identity rides up for the reply
			m.NetDst = h.Seq
			if err := c.Up.Demux(m); err != nil {
				// The request died above us before a reply was
				// cached (e.g. a corrupted selector): roll the
				// sequence back so the client's retransmission is
				// processed fresh instead of replaying a stale
				// cached reply forever.
				ch.lastSeqSeen = h.Seq - 1
				return err
			}
			return nil
		default:
			c.DupRequests++
			return nil // ancient duplicate or corrupted sequence
		}

	case wire.ChanReply:
		if ch.pending == nil || h.Seq != ch.seq {
			c.DupRequests++
			return nil // stale reply
		}
		if ch.timer != nil {
			ch.timer.Cancel()
			ch.timer = nil
		}
		done := ch.pending
		ch.pending = nil
		waiting := ch.waiting
		ch.waiting = nil
		c.Replies++
		body := append([]byte(nil), m.Bytes()...)
		// Wake the blocked caller. The awakened thread resumes only
		// after the interrupt-level processing returns (§2.1), so the
		// continuation runs as a follow-on event offset by the cycles
		// this event consumed.
		c.H.ScheduleAfterProcessing(0, func() {
			c.H.BeginEvent(nil)
			waiting.Signal()
			done(body)
		})
		return nil
	}
	return fmt.Errorf("chan: unknown kind %d", h.Kind)
}

// Reply sends the response for the request identified by (chanID, seq) and
// caches it for duplicate suppression.
func (c *Chan) Reply(chanID, seq uint32, payload []byte) error {
	h := wire.ChanHeader{ChanID: chanID, Seq: seq, Kind: wire.ChanReply}
	pdu := append(h.Marshal(), payload...)
	ch := c.Channel(chanID)
	ch.cachedReply = pdu
	return c.send(pdu)
}

// Vchan multiplexes a pool of CHAN channels so concurrent calls each get a
// private channel; for the latency test a single channel ping-pongs.
type Vchan struct {
	H  *xkernel.Host
	Dn *Chan
	Up xkernel.Protocol

	free    []uint32
	nextID  uint32
	curID   uint32
	InUse   int
	MaxUsed int
}

// NewVchan builds the channel multiplexor.
func NewVchan(h *xkernel.Host, dn *Chan) *Vchan {
	v := &Vchan{H: h, Dn: dn}
	dn.Up = v
	h.Graph.Connect("VCHAN", "CHAN")
	return v
}

// Name implements xkernel.Protocol.
func (v *Vchan) Name() string { return "VCHAN" }

// Call allocates a channel, issues the call, and returns the channel to the
// pool when the reply arrives.
func (v *Vchan) Call(payload []byte, done func(reply []byte)) error {
	var id uint32
	if n := len(v.free); n > 0 {
		id = v.free[n-1]
		v.free = v.free[:n-1]
	} else {
		v.nextID++
		id = v.nextID
	}
	v.InUse++
	if v.InUse > v.MaxUsed {
		v.MaxUsed = v.InUse
	}
	hdr := wire.VchanHeader{VchanID: id}
	pdu := append(hdr.Marshal(), payload...)
	return v.Dn.Channel(id).Call(pdu, func(reply []byte) {
		v.InUse--
		v.free = append(v.free, id)
		if len(reply) < wire.VchanHeaderLen {
			return
		}
		done(reply[wire.VchanHeaderLen:])
	})
}

// Demux handles the server side: strip the VCHAN header and pass up,
// remembering the id so the reply can restore it.
func (v *Vchan) Demux(m *xkernel.Msg) error {
	raw, err := m.Pop(wire.VchanHeaderLen)
	if err != nil {
		return err
	}
	h, err := wire.UnmarshalVchan(raw)
	if err != nil {
		return err
	}
	v.curID = h.VchanID
	return v.Up.Demux(m)
}

// CurrentID returns the virtual channel of the request being processed.
func (v *Vchan) CurrentID() uint32 { return v.curID }

// ReplyHeader rebuilds the VCHAN header for a reply on channel id.
func (v *Vchan) ReplyHeader(id uint32) []byte {
	h := wire.VchanHeader{VchanID: id}
	return h.Marshal()
}

// Mselect dispatches calls to named services, like a tiny port mapper.
type Mselect struct {
	H  *xkernel.Host
	Dn *Vchan

	services map[uint16]Handler
}

// Handler is a server-side RPC service: it maps request bytes to reply
// bytes.
type Handler func(req []byte) []byte

// NewMselect builds the selector layer.
func NewMselect(h *xkernel.Host, dn *Vchan) *Mselect {
	m := &Mselect{H: h, Dn: dn, services: map[uint16]Handler{}}
	dn.Up = m
	h.Graph.Connect("MSELECT", "VCHAN")
	return m
}

// Name implements xkernel.Protocol.
func (ms *Mselect) Name() string { return "MSELECT" }

// RegisterService installs the handler for a selector.
func (ms *Mselect) RegisterService(sel uint16, h Handler) {
	ms.services[sel] = h
}

// Call invokes the remote service sel.
func (ms *Mselect) Call(sel uint16, args []byte, done func(reply []byte)) error {
	h := wire.MselectHeader{Selector: sel}
	return ms.Dn.Call(append(h.Marshal(), args...), done)
}

// Demux is the server side: find the service, run it, and reply through the
// channel that carried the request.
func (ms *Mselect) Demux(m *xkernel.Msg) error {
	chanID, seq := m.NetSrc, m.NetDst
	raw, err := m.Pop(wire.MselectHeaderLen)
	if err != nil {
		return err
	}
	sh, err := wire.UnmarshalMselect(raw)
	if err != nil {
		return err
	}
	handler, ok := ms.services[sh.Selector]
	if !ok {
		return fmt.Errorf("mselect: no service %d", sh.Selector)
	}
	reply := handler(m.Bytes())
	full := append(ms.Dn.ReplyHeader(ms.Dn.CurrentID()), reply...)
	return ms.Dn.Dn.Reply(chanID, seq, full)
}
