package tcpip

import (
	"encoding/binary"
	"fmt"

	"repro/internal/netsim"
	"repro/internal/protocols/features"
	"repro/internal/protocols/wire"
	"repro/internal/xkernel"
)

// TCPState enumerates the connection states this implementation uses.
type TCPState int

// Connection states.
const (
	StateClosed TCPState = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait
	StateCloseWait
	StateLastAck
)

var stateNames = map[TCPState]string{
	StateClosed: "CLOSED", StateListen: "LISTEN", StateSynSent: "SYN_SENT",
	StateSynRcvd: "SYN_RCVD", StateEstablished: "ESTABLISHED",
	StateFinWait: "FIN_WAIT", StateCloseWait: "CLOSE_WAIT", StateLastAck: "LAST_ACK",
}

func (s TCPState) String() string { return stateNames[s] }

const (
	tcpMSS = 1460
	// tcbBytes is the virtual size of a connection control block.
	tcbBytes = 256
	// initialRTO is the retransmission timeout (200 ms in cycles): doubled
	// on every timeout and reset by any acknowledgment.
	initialRTO = 200_000 * netsim.CyclesPerMicrosecond
	// tcpDupAckThreshold is the fast-retransmit trigger (RFC 5681 §3.2).
	tcpDupAckThreshold = 3
	// defaultRcvWnd is the advertised receive window.
	defaultRcvWnd = 16 * 1024
	// DefaultMaxRetransmits caps consecutive retransmissions of one
	// segment before the connection is aborted (BSD's TCP_MAXRXTSHIFT
	// spirit, scaled to the simulation's short runs).
	DefaultMaxRetransmits = 8
)

// App is the layer above TCP (the test protocol): it is notified when a
// connection reaches the established state and when data arrives.
type App interface {
	Established(c *TCB)
	Deliver(c *TCB, data []byte)
}

// TCP is the transport protocol: BSD-derived semantics on the x-kernel
// organization (demux via the map manager with its one-entry cache).
type TCP struct {
	H    *xkernel.Host
	IP   *IP
	Feat features.Set

	pcbs      *xkernel.Map
	listeners map[uint16]App

	// MaxRetransmits caps consecutive retransmissions of one segment;
	// exceeding it aborts the connection (0 means DefaultMaxRetransmits,
	// negative disables the cap).
	MaxRetransmits int

	// Counters for tests and CPU-utilization reporting.
	SegsIn, SegsOut   int
	Retransmits       int
	FastRetransmits   int
	Aborts            int
	ChecksumErrs      int
	DupSegs           int
	PureAcks          int
	Divisions         int // integer divisions executed on the hot path
	WindowUpdateMuls  int // 35%-of-window multiply/divide computations
	FastLookups       int // demux lookups satisfied by the inlined cache test
	connectionsOpened int

	// cur is the TCB the current inbound segment resolved to; condition
	// closures read it.
	cur *TCB
	// lastLookupMiss records whether the most recent demux lookup missed
	// the map's one-entry cache; in steady state it predicts the next
	// lookup's outcome, which is what the code-model condition needs.
	lastLookupMiss bool
}

// NewTCP builds the TCP layer above ip.
func NewTCP(h *xkernel.Host, ip *IP, feat features.Set) *TCP {
	t := &TCP{
		H:         h,
		IP:        ip,
		Feat:      feat,
		pcbs:      NewDemuxMap(),
		listeners: map[uint16]App{},
	}
	ip.Register(wire.IPProtoTCP, t)
	h.Graph.Connect("TCP", "IP")
	return t
}

// NewDemuxMap returns a map sized like the x-kernel's TCP demux table.
func NewDemuxMap() *xkernel.Map { return xkernel.NewMap(256) }

// Name implements xkernel.Protocol.
func (t *TCP) Name() string { return "TCP" }

// TCB is a connection control block.
type TCB struct {
	T     *TCP
	State TCPState

	LocalPort, RemotePort uint16
	RemoteAddr            wire.IPAddr

	iss    uint32
	sndNxt uint32
	sndUna uint32
	rcvNxt uint32

	sndWnd    uint32 // peer's advertised window
	maxSndWnd uint32 // largest window the peer ever advertised
	rcvWnd    uint32
	cwnd      uint32
	ssthresh  uint32

	app App

	retrans     *xkernel.TimerEvent
	rto         uint64 // current retransmission timeout, in cycles
	retries     int    // consecutive retransmissions of the unacked segment
	dupAcks     int    // consecutive duplicate ACKs for sndUna
	unackedSeq  uint32
	unackedData []byte
	unackedFlag uint8

	lastAckSent uint32
	segsOutMark int // T.SegsOut snapshot to detect piggybacking

	// OnAcked, when set, fires whenever an ACK drains the send queue
	// (sndUna catches up with sndNxt) — the hook ack-clocked senders
	// (the throughput test) drive their next segment from.
	OnAcked func()

	// OnAbort, when set, fires after the retransmission cap gives up on
	// the connection (the TCB has already transitioned to CLOSED).
	OnAbort func()

	// VAddr is the control block's virtual address for d-cache modeling.
	VAddr uint64
}

func (c *TCB) String() string {
	return fmt.Sprintf("tcb{%d->%v:%d %v}", c.LocalPort, c.RemoteAddr, c.RemotePort, c.State)
}

// pcbKey builds the demux key for a connection.
func pcbKey(lport, rport uint16, raddr wire.IPAddr) []byte {
	k := make([]byte, 8)
	binary.BigEndian.PutUint16(k[0:2], lport)
	binary.BigEndian.PutUint16(k[2:4], rport)
	binary.BigEndian.PutUint32(k[4:8], uint32(raddr))
	return k
}

// Listen registers an application accepting connections on port.
func (t *TCP) Listen(port uint16, app App) {
	t.listeners[port] = app
}

// newConn allocates, initializes and binds a connection control block —
// the single seam both open paths (active and passive) share.
func (t *TCP) newConn(state TCPState, lport, rport uint16, raddr wire.IPAddr, app App) *TCB {
	t.connectionsOpened++
	c := &TCB{
		T: t, State: state,
		LocalPort: lport, RemotePort: rport, RemoteAddr: raddr,
		iss:    uint32(t.connectionsOpened) * 64000,
		rcvWnd: defaultRcvWnd, cwnd: tcpMSS, ssthresh: 64 * 1024,
		rto: initialRTO, app: app,
		VAddr: t.H.Alloc.Alloc(tcbBytes),
	}
	c.sndNxt = c.iss
	c.sndUna = c.iss
	t.pcbs.Bind(pcbKey(lport, rport, raddr), c)
	return c
}

// Open actively opens a connection and sends the initial SYN; the app is
// notified via Established when the handshake completes.
func (t *TCP) Open(lport, rport uint16, raddr wire.IPAddr, app App) *TCB {
	c := t.newConn(StateSynSent, lport, rport, raddr, app)
	c.sendSegment(wire.TCPFlagSYN, nil, true)
	return c
}

// Connections walks all open connections via the map's non-empty bucket
// list — the traversal that replaced BSD's separate connection list.
func (t *TCP) Connections() []*TCB {
	var out []*TCB
	t.pcbs.Walk(func(_ []byte, v interface{}) bool {
		out = append(out, v.(*TCB))
		return true
	})
	return out
}

// Send transmits payload on an established connection (piggybacking the
// current ack), retaining it for retransmission.
func (c *TCB) Send(payload []byte) error {
	if c.State != StateEstablished {
		return fmt.Errorf("tcp: send in state %v", c.State)
	}
	c.sendSegment(wire.TCPFlagACK|wire.TCPFlagPSH, payload, true)
	return nil
}

// Close sends FIN.
func (c *TCB) Close() {
	switch c.State {
	case StateEstablished:
		c.State = StateFinWait
	case StateCloseWait:
		c.State = StateLastAck
	default:
		return
	}
	c.sendSegment(wire.TCPFlagFIN|wire.TCPFlagACK, nil, true)
}

// advertisedWindow applies the window-update computation: the original code
// computes 35% of the maximum window with integer multiply and divide; the
// improved code computes ~33% with a shift and add (§2.2.2). The value only
// gates *when* a window update is considered worthwhile, so the operational
// difference is negligible — but the instruction streams differ.
func (c *TCB) advertisedWindow() uint32 {
	win := c.rcvWnd
	var threshold uint32
	if c.T.Feat.AvoidDivision {
		threshold = win>>2 + win>>4 // ~31%, shift and add
	} else {
		c.T.WindowUpdateMuls++
		c.T.Divisions++
		threshold = win * 35 / 100
	}
	if win < threshold {
		return 0 // suppress tiny windows (silly window avoidance)
	}
	return win
}

// sendSegment builds, checksums and transmits one segment.
func (c *TCB) sendSegment(flags uint8, payload []byte, retain bool) {
	t := c.T
	h := wire.TCPHeader{
		SrcPort: c.LocalPort,
		DstPort: c.RemotePort,
		Seq:     c.sndNxt,
		Flags:   flags,
		Window:  uint16(c.advertisedWindow()),
	}
	if flags&wire.TCPFlagACK != 0 {
		h.Ack = c.rcvNxt
		c.lastAckSent = c.rcvNxt
	}
	seg := append(h.Marshal(), payload...)
	ck := wire.TCPChecksum(t.IP.Local, c.RemoteAddr, seg)
	binary.BigEndian.PutUint16(seg[16:18], ck)

	consumed := uint32(len(payload))
	if flags&(wire.TCPFlagSYN|wire.TCPFlagFIN) != 0 {
		consumed++
	}
	if retain && consumed > 0 {
		c.unackedSeq = c.sndNxt
		c.unackedData = append([]byte(nil), payload...)
		c.unackedFlag = flags
		c.armRetransmit()
	}
	c.sndNxt += consumed

	m := xkernel.NewMsgData(t.H.Alloc, seg)
	t.SegsOut++
	if err := t.IP.Push(m, wire.IPProtoTCP, c.RemoteAddr); err != nil {
		// Transmission failures surface through retransmission.
		return
	}
}

func (c *TCB) armRetransmit() {
	if c.retrans != nil {
		c.retrans.Cancel()
	}
	t := c.T
	c.retrans = t.H.Queue.Schedule(c.rto, func() { t.retransmit(c) })
}

// retransmit resends the unacknowledged segment, doubling the timeout and
// aborting the connection once the retry cap is exhausted.
func (t *TCP) retransmit(c *TCB) {
	if c.sndUna == c.sndNxt || c.unackedData == nil && c.unackedFlag == 0 {
		return
	}
	if cap := t.maxRetransmits(); cap > 0 && c.retries >= cap {
		t.Abort(c)
		return
	}
	c.retries++
	t.Retransmits++
	t.H.BeginEvent(nil)
	t.H.RunModel("tcp_retransmit")
	// Congestion response: ssthresh halves, window closes.
	c.ssthresh = max32(c.cwnd/2, tcpMSS)
	c.cwnd = tcpMSS
	c.rto *= 2
	c.dupAcks = 0
	saveNxt := c.sndNxt
	c.sndNxt = c.unackedSeq
	c.sendSegment(c.unackedFlag, c.unackedData, false)
	c.sndNxt = saveNxt
	c.armRetransmit()
}

// fastRetransmit resends the oldest unacknowledged segment immediately on
// the third duplicate ACK (RFC 5681 §3.2): the duplicate-ACK stream is
// evidence the network is still delivering, so there is no reason to sit
// out the rest of the RTO. The timer is re-armed at the current RTO
// without backoff. It runs inside the ACK's input event, so no model cost
// is charged beyond the input path already accounted for.
func (t *TCP) fastRetransmit(c *TCB) {
	if c.unackedData == nil && c.unackedFlag == 0 {
		return
	}
	t.FastRetransmits++
	// A fast retransmission counts against the abort cap.
	c.retries++
	c.ssthresh = max32(c.cwnd/2, tcpMSS)
	saveNxt := c.sndNxt
	c.sndNxt = c.unackedSeq
	c.sendSegment(c.unackedFlag, c.unackedData, false)
	c.sndNxt = saveNxt
	c.armRetransmit()
}

func (t *TCP) maxRetransmits() int {
	if t.MaxRetransmits == 0 {
		return DefaultMaxRetransmits
	}
	if t.MaxRetransmits < 0 {
		return 0 // cap disabled
	}
	return t.MaxRetransmits
}

// Abort gives up on a connection (the retransmission cap, or an explicit
// reset): the timer is cancelled, pending data discarded, the TCB moved to
// CLOSED and unbound from the demux map, and the teardown cost charged via
// the tcp_abort model hook before the application is notified.
func (t *TCP) Abort(c *TCB) {
	if c.State == StateClosed {
		return
	}
	t.Aborts++
	t.H.BeginEvent(nil)
	t.H.RunModel("tcp_abort")
	if c.retrans != nil {
		c.retrans.Cancel()
		c.retrans = nil
	}
	c.unackedData = nil
	c.unackedFlag = 0
	c.State = StateClosed
	t.pcbs.Unbind(pcbKey(c.LocalPort, c.RemotePort, c.RemoteAddr))
	if c.OnAbort != nil {
		c.OnAbort()
	}
}

// Demux processes an inbound segment.
func (t *TCP) Demux(m *xkernel.Msg) error {
	seg, err := m.Peek(m.Len())
	if err != nil || len(seg) < wire.TCPHeaderLen {
		return fmt.Errorf("tcp: runt segment")
	}
	src := wire.IPAddr(m.NetSrc)
	dst := wire.IPAddr(m.NetDst)
	if wire.TCPChecksum(src, dst, seg) != 0 {
		t.ChecksumErrs++
		return fmt.Errorf("tcp: checksum error")
	}
	h, err := wire.UnmarshalTCP(seg)
	if err != nil {
		return err
	}
	if _, err := m.Pop(wire.TCPHeaderLen); err != nil {
		return err
	}
	t.SegsIn++

	// Demultiplex. The inlined one-entry cache test (§2.2.3) and the
	// general map_resolve are functionally the same map; the feature
	// toggle selects which code model runs, and FastLookups records the
	// cache behaviour the inlining exploits.
	key := pcbKey(h.DstPort, h.SrcPort, src)
	hitsBefore := t.pcbs.CacheHits
	v, ok := t.pcbs.Resolve(key)
	t.lastLookupMiss = t.pcbs.CacheHits == hitsBefore
	if t.Feat.InlinedMapCacheTest && !t.lastLookupMiss {
		t.FastLookups++
	}
	if !ok {
		// No connection: a SYN to a listening port creates one.
		if h.Flags&wire.TCPFlagSYN != 0 && h.Flags&wire.TCPFlagACK == 0 {
			return t.passiveOpen(&h, src)
		}
		return fmt.Errorf("tcp: no connection for %d<-%v:%d", h.DstPort, src, h.SrcPort)
	}
	c := v.(*TCB)
	t.cur = c
	return t.input(c, &h, m)
}

// passiveOpen handles SYN-to-listener.
func (t *TCP) passiveOpen(h *wire.TCPHeader, src wire.IPAddr) error {
	app, ok := t.listeners[h.DstPort]
	if !ok {
		return fmt.Errorf("tcp: connection refused on port %d", h.DstPort)
	}
	c := t.newConn(StateSynRcvd, h.DstPort, h.SrcPort, src, app)
	c.rcvNxt = h.Seq + 1
	c.noteWindow(uint32(h.Window))
	c.sendSegment(wire.TCPFlagSYN|wire.TCPFlagACK, nil, true)
	return nil
}

func (c *TCB) noteWindow(w uint32) {
	c.sndWnd = w
	if w > c.maxSndWnd {
		c.maxSndWnd = w
	}
}

// input is tcp_input after the control block has been found.
func (t *TCP) input(c *TCB, h *wire.TCPHeader, m *xkernel.Msg) error {
	c.noteWindow(uint32(h.Window))

	// ACK processing (sender-side housekeeping).
	if h.Flags&wire.TCPFlagACK != 0 {
		switch {
		case seqGT(h.Ack, c.sndUna):
			c.dupAcks = 0
			c.sndUna = h.Ack
			if c.sndUna == c.sndNxt {
				if c.retrans != nil {
					c.retrans.Cancel()
					c.retrans = nil
				}
				c.unackedData = nil
				c.unackedFlag = 0
				c.rto = initialRTO
				c.retries = 0
				if c.OnAcked != nil {
					c.OnAcked()
				}
			}
			c.updateCwnd()
			if c.State == StateSynRcvd {
				c.State = StateEstablished
				c.app.Established(c)
			}
			if c.State == StateLastAck {
				c.State = StateClosed
				t.pcbs.Unbind(pcbKey(c.LocalPort, c.RemotePort, c.RemoteAddr))
			}
		case h.Ack == c.sndUna && c.sndUna != c.sndNxt && m.Len() == 0 &&
			h.Flags&(wire.TCPFlagSYN|wire.TCPFlagFIN) == 0:
			// A pure ACK that moves nothing while data is outstanding:
			// a duplicate. Three in a row trigger fast retransmit.
			c.dupAcks++
			if c.dupAcks == tcpDupAckThreshold {
				t.fastRetransmit(c)
			}
		}
	}

	switch c.State {
	case StateSynSent:
		if h.Flags&(wire.TCPFlagSYN|wire.TCPFlagACK) == wire.TCPFlagSYN|wire.TCPFlagACK && h.Ack == c.iss+1 {
			c.sndUna = h.Ack
			c.rcvNxt = h.Seq + 1
			c.State = StateEstablished
			if c.retrans != nil {
				c.retrans.Cancel()
				c.retrans = nil
			}
			c.unackedData, c.unackedFlag = nil, 0
			c.retries = 0
			// Open the congestion window for the LAN case.
			c.cwnd = max32(c.maxSndWnd, tcpMSS)
			c.sendPureAck()
			c.app.Established(c)
		}
		return nil

	case StateEstablished, StateFinWait, StateCloseWait:
		// Receiver-side housekeeping: in-order data only; anything
		// else is dropped and re-acked (stop-and-wait discipline).
		if m.Len() > 0 {
			if h.Seq == c.rcvNxt {
				c.rcvNxt += uint32(m.Len())
				data := append([]byte(nil), m.Bytes()...)
				mark := t.SegsOut
				c.segsOutMark = mark
				c.app.Deliver(c, data)
				// If delivery did not trigger a send that
				// piggybacked the ack, send a pure one.
				if t.SegsOut == mark && seqGT(c.rcvNxt, c.lastAckSent) {
					c.sendPureAck()
				}
			} else {
				t.DupSegs++
				c.sendPureAck()
			}
		}
		if h.Flags&wire.TCPFlagFIN != 0 && h.Seq == c.rcvNxt {
			c.rcvNxt++
			if c.State == StateFinWait {
				c.State = StateClosed
				t.pcbs.Unbind(pcbKey(c.LocalPort, c.RemotePort, c.RemoteAddr))
			} else {
				c.State = StateCloseWait
			}
			c.sendPureAck()
		}
	}
	return nil
}

func (c *TCB) sendPureAck() {
	c.T.PureAcks++
	c.sendSegment(wire.TCPFlagACK, nil, false)
}

// updateCwnd performs the congestion-window bookkeeping on ACK arrival. The
// common LAN case — window fully open — is tested first when AvoidDivision
// is on, skipping the multiply/divide slow path entirely (§2.2.2).
func (c *TCB) updateCwnd() {
	limit := c.maxSndWnd
	if limit == 0 {
		limit = 64 * 1024
	}
	if c.T.Feat.AvoidDivision && c.cwnd >= limit {
		return // fully open: nothing to do
	}
	if c.cwnd < c.ssthresh {
		c.cwnd += tcpMSS // slow start
	} else {
		// Congestion avoidance: the BSD increment, with its integer
		// multiply and divide.
		c.T.Divisions++
		c.cwnd += max32(tcpMSS*tcpMSS/c.cwnd, 1)
	}
	if c.cwnd > limit {
		c.cwnd = limit
	}
}

// CwndOpen reports whether the congestion window is fully open (condition
// closure for the code models).
func (c *TCB) CwndOpen() bool {
	limit := c.maxSndWnd
	if limit == 0 {
		limit = 64 * 1024
	}
	return c.cwnd >= limit
}

// Current returns the TCB the most recent inbound segment resolved to.
func (t *TCP) Current() *TCB { return t.cur }

// LastLookupMissed reports whether the most recent demux lookup missed the
// one-entry cache.
func (t *TCP) LastLookupMissed() bool { return t.lastLookupMiss }

// DemuxCacheStats returns the demux map's one-entry cache hit/miss counts.
func (t *TCP) DemuxCacheStats() (hits, misses int) {
	return t.pcbs.CacheHits, t.pcbs.CacheMisses
}

func seqGT(a, b uint32) bool { return int32(a-b) > 0 }

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
