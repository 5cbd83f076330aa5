package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/layout"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/protocols/tcpip"
	"repro/internal/protocols/wire"
	"repro/internal/sim/cpu"
	"repro/internal/sim/mem"
	"repro/internal/xkernel"
)

// MultiConnResult measures a round-robin ping-pong across several TCP
// connections.
type MultiConnResult struct {
	Connections   int
	PerConnClones bool
	// TeUS is the steady-state roundtrip latency.
	TeUS float64
	// CacheHitRate is the demux map's one-entry cache hit rate; it
	// collapses as soon as consecutive packets belong to different
	// connections (the locality assumption behind §2.2.3's conditional
	// inlining).
	CacheHitRate float64
	// InstrPerRT is the client's dynamic instruction count per roundtrip.
	InstrPerRT float64
}

// multiConnApp ping-pongs across n connections in round-robin order.
type multiConnApp struct {
	host  *xkernel.Host
	conns []*tcpip.TCB
	estab int

	payload   []byte
	want      int
	completed int
	stamps    []uint64
	next      int
}

func (a *multiConnApp) Established(c *tcpip.TCB) {
	a.estab++
	if a.estab == len(a.conns) {
		a.next = 0
		_ = a.conns[0].Send(a.payload)
	}
}

func (a *multiConnApp) Deliver(c *tcpip.TCB, data []byte) {
	a.completed++
	a.stamps = append(a.stamps, a.host.Queue.Now())
	if a.completed >= a.want {
		return
	}
	a.next = (a.next + 1) % len(a.conns)
	_ = a.conns[a.next].Send(a.payload)
}

// connIdxFromFrame recovers the connection index from the client port
// carried in a TCP/IP frame (ports base..base+n-1); dir selects which port
// field holds it (dst on the client, src on the server).
func connIdxFromFrame(frame []byte, basePort uint16, n int, srcSide bool) int {
	if len(frame) < 38 {
		return -1
	}
	off := 36 // TCP destination port
	if srcSide {
		off = 34
	}
	port := binary.BigEndian.Uint16(frame[off : off+2])
	idx := int(port) - int(basePort)
	if idx < 0 || idx >= n {
		return -1
	}
	return idx
}

// MultiConnection runs a round-robin ping-pong over nConns connections.
// With perConnClones the client and server run one specialized clone set
// per connection (§3.2's connection-time cloning); otherwise all
// connections share the stack-time clones (the ALL configuration).
func MultiConnection(nConns, roundtrips int, perConnClones bool) (MultiConnResult, error) {
	if nConns < 1 {
		return MultiConnResult{}, fmt.Errorf("core: need at least one connection")
	}
	m := arch.DEC3000_600()
	feat := DefaultConfig(StackTCPIP, CLO).Feat

	build := func() (*code.Program, func(conn int, name string) string, error) {
		if !perConnClones {
			p, err := BuildProgram(StackTCPIP, CLO, feat, Bipartite, m)
			return p, nil, err
		}
		fns, spec := stackModels(StackTCPIP, feat)
		base := code.NewProgram()
		if err := base.Add(fns...); err != nil {
			return nil, nil, err
		}
		return layout.CloneForConnections(layout.Outline(base), spec, m, layout.DefaultCloneBase, nConns)
	}

	clientProg, clientSel, err := build()
	if err != nil {
		return MultiConnResult{}, err
	}
	serverProg, serverSel, err := build()
	if err != nil {
		return MultiConnResult{}, err
	}

	q := xkernel.NewEventQueue()
	link := netsim.NewLink(q)
	mkHost := func(name string, prog *code.Program, perturb uint64) *xkernel.Host {
		hm := mem.New(m)
		c := cpu.New(hm)
		return xkernel.NewHost(name, c, hm, code.NewEngine(c, prog), q, perturb)
	}
	ch := mkHost("client", clientProg, 0)
	sh := mkHost("server", serverProg, 7)

	client := tcpip.Build(ch, link, wire.MACAddr{8, 0, 0x2b, 1, 1, 1}, 0xc0a80001, feat, false, 1)
	server := tcpip.Build(sh, link, wire.MACAddr{8, 0, 0x2b, 2, 2, 2}, 0xc0a80002, feat, true, 0)
	tcpip.Connect(client, server)

	const basePort = 3000
	if clientSel != nil {
		ch.ModelSelector = func(name string) string {
			return clientSel(connIdxFromFrame(ch.CurrentFrame, basePort, nConns, false), name)
		}
	}
	if serverSel != nil {
		sh.ModelSelector = func(name string) string {
			return serverSel(connIdxFromFrame(sh.CurrentFrame, basePort, nConns, true), name)
		}
	}

	app := &multiConnApp{
		host:    ch,
		payload: []byte{0xAB},
		want:    roundtrips,
		conns:   make([]*tcpip.TCB, nConns),
	}
	ch.BeginEvent(nil)
	ch.SetStack(ch.Threads.AcquireStack())
	for i := 0; i < nConns; i++ {
		app.conns[i] = client.TCP.Open(uint16(basePort+i), 2000, server.IP.Local, app)
	}
	q.Run(2_000_000)
	if app.completed < roundtrips {
		return MultiConnResult{}, fmt.Errorf("core: multi-conn run stalled at %d/%d", app.completed, roundtrips)
	}

	// Steady-state latency over the second half of the roundtrips.
	half := len(app.stamps) / 2
	te := float64(app.stamps[len(app.stamps)-1]-app.stamps[half-1]) /
		float64(len(app.stamps)-half) / m.CyclesPerMicrosecond()
	hits, misses := client.TCP.DemuxCacheStats()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return MultiConnResult{
		Connections:   nConns,
		PerConnClones: perConnClones,
		TeUS:          te,
		CacheHitRate:  hitRate,
		InstrPerRT:    float64(ch.CPU.Metrics().Instructions) / float64(roundtrips),
	}, nil
}

// MultiConnectionTable sweeps connection counts with and without
// per-connection clones — the §3.2 locality-vs-specialization trade-off.
// Each (connections, clone-mode) cell is an independent simulation; the
// cells run concurrently and render in sweep order. It returns the text
// report and the same cells as a table.
func MultiConnectionTable(roundtrips int) (string, obs.Table, error) {
	type cell struct {
		n   int
		per bool
	}
	var cells []cell
	for _, n := range []int{1, 2, 4} {
		for _, per := range []bool{false, true} {
			cells = append(cells, cell{n, per})
		}
	}
	results := make([]MultiConnResult, len(cells))
	err := forEachIndexed(len(cells), Parallelism(), func(i int) error {
		r, err := MultiConnection(cells[i].n, roundtrips, cells[i].per)
		results[i] = r
		return err
	})
	if err != nil {
		return "", obs.Table{}, err
	}

	t := obs.Table{Name: "multiconn", Title: "Connection-time cloning: locality vs. specialization (TCP/IP round-robin ping-pong)",
		Columns: []string{"conns", "clones", "te_us", "demux_hit_pct", "instrs_per_rt"}}
	var sb strings.Builder
	sb.WriteString(t.Title + "\n")
	fmt.Fprintf(&sb, "%-6s %-18s %10s %12s %12s\n", "conns", "clones", "Te [us]", "cache hits", "instrs/RT")
	for i, c := range cells {
		r := results[i]
		label := "shared (stack-time)"
		if c.per {
			label = "per-connection"
		}
		row := []string{strconv.Itoa(c.n), label, fmt.Sprintf("%.1f", r.TeUS),
			fmt.Sprintf("%.0f", r.CacheHitRate*100), fmt.Sprintf("%.0f", r.InstrPerRT)}
		t.Rows = append(t.Rows, row)
		fmt.Fprintf(&sb, "%-6s %-18s %10s %11s%% %12s\n", row[0], row[1], row[2], row[3], row[4])
	}
	sb.WriteString("\nPer-connection clones execute fewer instructions (connection state is\n" +
		"partially evaluated into the code) but alternate between code copies,\n" +
		"so locality of reference suffers as connections multiply — the paper's\n" +
		"stated trade-off for delaying cloning until connection setup.\n")
	return sb.String(), t, nil
}
