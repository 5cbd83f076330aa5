package rpc

import (
	"repro/internal/code"
	"repro/internal/lance"
	"repro/internal/netsim"
	"repro/internal/protocols/features"
	"repro/internal/protocols/tcpip"
	"repro/internal/protocols/wire"
	"repro/internal/xkernel"
)

// Stack is a fully wired RPC host (Figure 1, right). The VNET/ETH/LANCE
// substrate is shared with the TCP/IP configuration.
type Stack struct {
	Host    *xkernel.Host
	Dev     *lance.Device
	Eth     *tcpip.Eth
	VNet    *tcpip.VNet
	Blast   *Blast
	Bid     *Bid
	Chan    *Chan
	Vchan   *Vchan
	Mselect *Mselect
	Test    *XRPCTest
	Feat    features.Set
	Addr    wire.IPAddr
}

// Build assembles the RPC stack on host h.
func Build(h *xkernel.Host, l *netsim.Link, mac wire.MACAddr, addr, peer wire.IPAddr, feat features.Set, server bool, calls int) *Stack {
	s := &Stack{Host: h, Feat: feat, Addr: addr}
	h.Threads.UseContinuations = feat.Continuations
	s.Dev = lance.New(h, l, mac, feat.UseUSC)
	s.Dev.Pool.ShortCircuit = feat.RefreshShortCircuit
	s.Eth = tcpip.NewEth(h, s.Dev)
	s.VNet = tcpip.NewVNet(h)
	s.Blast = NewBlast(h, s.VNet, peer)
	s.Eth.Register(wire.EtherTypeXRPC, s.Blast)
	bootID := uint32(0x1000)
	if server {
		bootID = 0x2000
	}
	s.Bid = NewBid(h, s.Blast, bootID)
	s.Chan = NewChan(h, s.Bid)
	s.Vchan = NewVchan(h, s.Chan)
	s.Mselect = NewMselect(h, s.Vchan)
	if server {
		s.Test = NewServer(h, s.Mselect)
	} else {
		s.Test = NewClient(h, s.Mselect, calls)
	}
	h.EnvHooks = append(h.EnvHooks, s.bindConds)
	return s
}

// Connect wires two RPC stacks over their shared link.
func Connect(a, b *Stack) {
	a.Dev.Peer = b.Dev
	b.Dev.Peer = a.Dev
	a.VNet.AddRoute(b.Addr, a.Eth, b.Dev.MAC)
	b.VNet.AddRoute(a.Addr, b.Eth, a.Dev.MAC)
}

// bindConds registers model conditions for the current event.
func (s *Stack) bindConds(env *code.Binding) {
	frame := s.Host.CurrentFrame
	env.Bind("chan.state", xkernel.HeapBase+0x9000)
	env.Bind("blast.state", xkernel.HeapBase+0x9400)
	env.Bind("xrpc.state", xkernel.HeapBase+0x9800)

	env.SetFunc("rpc.respond", func() bool { return !s.Test.IsServer && s.Test.WillRespond() })
	env.Set("rpc.isserver", s.Test.IsServer)
	env.SetFunc("rpc.isreply", func() bool {
		// The client's inbound traffic is replies; the server's is
		// requests.
		return !s.Test.IsServer
	})

	// Loop trip counts in path order: inbound frame copy, then the
	// response's outbound frame copy.
	if frame != nil {
		env.PushCount("bcopy.more", (len(frame)+7)/8)
		if s.Test.WillRespond() || s.Test.IsServer {
			env.PushCount("bcopy.more", (wire.EthMinFrame+7)/8)
		}
	} else {
		env.PushCount("bcopy.more", (wire.EthMinFrame+7)/8)
	}

	env.Set("map.found", true)
	env.Set("pool.shared", false)
	env.Set("msg.lastref", true)
}
