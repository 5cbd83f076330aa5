package tcpip

import (
	"repro/internal/code"
	"repro/internal/lance"
	"repro/internal/netsim"
	"repro/internal/protocols/features"
	"repro/internal/protocols/wire"
	"repro/internal/xkernel"
)

// Stack is a fully wired TCP/IP host (Figure 1, left).
type Stack struct {
	Host *xkernel.Host
	Dev  *lance.Device
	Eth  *Eth
	VNet *VNet
	IP   *IP
	TCP  *TCP
	Test *TCPTest
	Feat features.Set
}

// Build assembles the stack on host h attached to link l. roundtrips is
// meaningful for the client (server echoes forever).
func Build(h *xkernel.Host, l *netsim.Link, mac wire.MACAddr, addr wire.IPAddr, feat features.Set, server bool, roundtrips int) *Stack {
	s := &Stack{Host: h, Feat: feat}
	h.Threads.UseContinuations = feat.Continuations
	s.Dev = lance.New(h, l, mac, feat.UseUSC)
	s.Dev.Pool.ShortCircuit = feat.RefreshShortCircuit
	s.Eth = NewEth(h, s.Dev)
	s.VNet = NewVNet(h)
	s.IP = NewIP(h, s.VNet, addr)
	s.Eth.Register(wire.EtherTypeIP, s.IP)
	s.TCP = NewTCP(h, s.IP, feat)
	if server {
		s.Test = NewServer(h, s.TCP, 2000)
	} else {
		s.Test = NewClient(h, s.TCP, roundtrips)
	}
	h.EnvHooks = append(h.EnvHooks, s.bindConds)
	return s
}

// Connect wires two stacks to each other over their shared link.
func Connect(a, b *Stack) {
	a.Dev.Peer = b.Dev
	b.Dev.Peer = a.Dev
	a.VNet.AddRoute(b.IP.Local, a.Eth, b.Dev.MAC)
	b.VNet.AddRoute(a.IP.Local, b.Eth, a.Dev.MAC)
}

// StartClient opens the test connection (the server must be listening).
func (s *Stack) StartClient(server *Stack) {
	s.Test.Start(2001, 2000, server.IP.Local)
}

// cksumWords returns the in_cksum loop trips (16 bytes per iteration) for a
// buffer of n bytes.
func cksumWords(n int) int {
	w := (n + 15) / 16
	if w < 1 {
		w = 1
	}
	return w
}

// frameVerdict predicts which receive-path branch the current inbound
// frame will take, the way the functional code will decide it: which error
// block fires (if any), and whether in-sequence data will be delivered.
// The code-model engine runs the whole path model at event start, before
// the functional demux executes, so the degraded paths that fault
// injection provokes must be predicted from the raw frame.
type frameVerdict struct {
	ipBad  bool // IP header fails validation (version, checksum)
	tcpBad bool // TCP checksum fails
	dup    bool // out-of-sequence data: the duplicate/re-ack path
}

// clean reports the fault-free fast path.
func (v frameVerdict) clean() bool { return !v.ipBad && !v.tcpBad && !v.dup }

// classifyFrame inspects a raw Ethernet frame the way ip.Demux and
// tcp.Demux will. It deliberately avoids the demux map (touching it would
// perturb the one-entry-cache statistics the models depend on), reading
// the expected sequence number from the test connection instead.
func (s *Stack) classifyFrame(frame []byte) frameVerdict {
	var v frameVerdict
	if len(frame) < wire.EthHeaderLen+wire.IPHeaderLen {
		v.ipBad = true
		return v
	}
	ipRaw := frame[wire.EthHeaderLen:]
	h, err := wire.UnmarshalIP(ipRaw[:wire.IPHeaderLen])
	if err != nil {
		v.ipBad = true
		return v
	}
	segEnd := int(h.TotalLen)
	if segEnd > len(ipRaw) {
		segEnd = len(ipRaw)
	}
	if segEnd < wire.IPHeaderLen+wire.TCPHeaderLen {
		v.tcpBad = true
		return v
	}
	seg := ipRaw[wire.IPHeaderLen:segEnd]
	if wire.TCPChecksum(h.Src, h.Dst, seg) != 0 {
		v.tcpBad = true
		return v
	}
	th, err := wire.UnmarshalTCP(seg)
	if err != nil {
		v.tcpBad = true
		return v
	}
	if c := s.Test.Conn; c != nil && c.State == StateEstablished &&
		len(seg) > wire.TCPHeaderLen && th.Seq != c.rcvNxt {
		v.dup = true
	}
	return v
}

// bindConds registers the model conditions for the current event: branch
// outcomes as closures over live protocol state, loop trip counts queued in
// path-execution order. For a clean frame the bindings are exactly the
// steady-state ones; when fault injection corrupts or replays traffic the
// frame verdict steers the model down the same degraded branch the
// functional code takes, truncating the count queue where the model
// returns early.
func (s *Stack) bindConds(env *code.Binding) {
	t := s.TCP
	frame := s.Host.CurrentFrame
	payload := len(s.Test.Payload)
	segLen := wire.TCPHeaderLen + payload

	var v frameVerdict
	if frame != nil {
		v = s.classifyFrame(frame)
	}

	// Data object addresses: connection state and the current segment.
	env.Bind("tcp.tcb", s.tcbAddr())
	env.Bind("test.state", xkernel.HeapBase+0x8000)

	// Branch conditions over live state.
	env.SetFunc("tcp.cwnd_open", func() bool {
		if c := t.Current(); c != nil {
			return c.CwndOpen()
		}
		return true
	})
	env.SetFunc("tcp.estab", func() bool {
		if c := t.Current(); c != nil {
			return c.State == StateEstablished
		}
		// Before demux resolves: predict from connection count.
		return len(t.Connections()) > 0
	})
	env.SetFunc("tcp.cache_miss", t.LastLookupMissed)
	env.SetFunc("tcp.ack_advances", func() bool { return true })
	env.Set("ip.bad", v.ipBad)
	env.Set("tcp.cksum_bad", v.tcpBad)
	env.Set("tcp.seq_ok", !v.dup)
	env.Set("tcp.sendable", true)
	env.SetFunc("test.respond", s.Test.WillRespond)

	// Loop trip counts, queued in path order. For an input event the
	// path is: lance rx copy, IP in cksum, TCP in cksum, payload copy,
	// [response: TCP out cksum, IP out cksum, lance tx copy, refresh].
	// Degraded paths return early from the corresponding model block, so
	// the queue is truncated at the same point: an IP-invalid frame
	// never reaches the TCP checksum, a TCP-invalid one never copies
	// payload, and a duplicate re-acks without delivering.
	if frame != nil {
		env.PushCount("bcopy.more", (len(frame)+7)/8) // lance_rx
		env.PushCount("cksum.more", cksumWords(wire.IPHeaderLen))
		if !v.ipBad {
			env.PushCount("cksum.more", cksumWords(segLen+12))
		}
		if v.clean() {
			env.PushCount("bcopy.more", (payload+7)/8) // deliver to app
			if s.Test.WillRespond() || s.Test.IsServer {
				env.PushCount("cksum.more", cksumWords(segLen+12))
				env.PushCount("cksum.more", cksumWords(wire.IPHeaderLen))
				env.PushCount("bcopy.more", (wire.EthMinFrame+7)/8) // lance_tx
			}
		}
	} else {
		// Send-only event.
		env.PushCount("cksum.more", cksumWords(segLen+12))
		env.PushCount("cksum.more", cksumWords(wire.IPHeaderLen))
		env.PushCount("bcopy.more", (wire.EthMinFrame+7)/8)
	}
	if !s.Feat.AvoidDivision {
		// Software divides on input (cwnd) and output (window update,
		// cwnd): a handful of subtract-and-shift iterations each.
		for i := 0; i < 4; i++ {
			env.PushCount("div.more", 8)
		}
	} else {
		env.PushCount("div.more", 8) // rare cwnd adjustment when not open
	}

	// Library-model conditions.
	env.Set("map.found", true)
	env.Set("pool.shared", false)
	env.Set("msg.lastref", true)
}

// tcbAddr returns the current connection's control-block address (or a
// stable placeholder before any connection exists).
func (s *Stack) tcbAddr() uint64 {
	if c := s.TCP.Current(); c != nil {
		return c.VAddr
	}
	if s.Test.Conn != nil {
		return s.Test.Conn.VAddr
	}
	return xkernel.HeapBase
}
