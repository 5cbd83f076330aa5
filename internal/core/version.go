// Package core assembles everything into the paper's experiments: it builds
// the two protocol stacks in each of the six measured configurations (STD,
// OUT, CLO, BAD, PIN, ALL), runs the ping-pong latency tests in virtual
// time, collects the end-to-end, trace, cache and CPI statistics, and
// renders every table and figure of the evaluation section.
package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/code"
	"repro/internal/lance"
	"repro/internal/layout"
	"repro/internal/models"
	"repro/internal/protocols/features"
	"repro/internal/protocols/rpc"
	"repro/internal/protocols/tcpip"
	"repro/internal/verify"
)

// Version is one of the measured configurations of §4.2.
type Version int

// The six test cases.
const (
	// STD includes the §2 improvements but none of the §3 techniques.
	STD Version = iota
	// OUT adds outlining.
	OUT
	// CLO adds cloning with the bipartite layout on top of OUT.
	CLO
	// BAD uses cloning to construct a pessimal layout.
	BAD
	// PIN is OUT plus path-inlining.
	PIN
	// ALL is PIN plus cloning with the bipartite layout.
	ALL
)

var versionNames = map[Version]string{
	STD: "STD", OUT: "OUT", CLO: "CLO", BAD: "BAD", PIN: "PIN", ALL: "ALL",
}

// String returns the paper's name for the version.
func (v Version) String() string { return versionNames[v] }

// Versions lists all configurations in the paper's Table 4 order (slowest
// first).
func Versions() []Version { return []Version{BAD, STD, OUT, CLO, PIN, ALL} }

// StackKind selects the protocol stack under test.
type StackKind int

// The two test stacks.
const (
	StackTCPIP StackKind = iota
	StackRPC
)

// String returns the stack's display name.
func (s StackKind) String() string {
	if s == StackRPC {
		return "RPC"
	}
	return "TCP/IP"
}

// CloneStrategy selects the cloned-code layout for CLO/ALL (the §3.2
// ablation).
type CloneStrategy int

// Layout strategies for cloned code.
const (
	// Bipartite is the paper's winning layout.
	Bipartite CloneStrategy = iota
	// MicroPosition is the trace-driven conflict-minimizing placement.
	MicroPosition
	// LinearLayout packs all cloned functions in pure invocation order.
	LinearLayout
)

// String returns the strategy's short name.
func (c CloneStrategy) String() string {
	switch c {
	case MicroPosition:
		return "micro-positioning"
	case LinearLayout:
		return "linear"
	default:
		return "bipartite"
	}
}

// stackModels returns the program functions and layout spec for a stack.
// Building the functions is the expensive half; a caller that needs only
// the names takes stackSpec.
func stackModels(kind StackKind, feat features.Set) ([]*code.Function, layout.Spec) {
	var fns []*code.Function
	fns = append(fns, models.Library(feat.RefreshShortCircuit)...)
	fns = append(fns, lance.Models("eth_demux", feat.UseUSC)...)
	if kind == StackRPC {
		fns = append(fns, rpc.Models(feat)...)
	} else {
		fns = append(fns, tcpip.Models(feat)...)
	}
	return fns, stackSpec(kind)
}

// stackSpec returns a stack's layout spec: its path and library function
// names. The names do not depend on the feature set, and no function is
// built.
func stackSpec(kind StackKind) layout.Spec {
	spec := layout.Spec{Path: tcpip.PathFuncs(), Library: models.LibraryNames()}
	if kind == StackRPC {
		spec.Path = rpc.PathFuncs()
	}
	return spec
}

// inlineSpec returns the path-inlining root and inlinable set per stack.
func inlineSpec(kind StackKind) (string, []string) {
	if kind == StackRPC {
		return rpc.InlineRoots()
	}
	return tcpip.InlineRoots()
}

// usageHint supplies the per-function invocation counts micro-positioning
// consumes (the trace-file information).
func usageHint(spec layout.Spec) map[string]int {
	u := map[string]int{}
	for _, n := range spec.Path {
		u[n] = 1
	}
	// Library functions run several times per path.
	for _, n := range spec.Library {
		u[n] = 3
	}
	u["bcopy"] = 4
	u["in_cksum"] = 4
	u["msg_push"] = 6
	u["msg_pop"] = 6
	return u
}

// buildProgram links the model image for one host in the given version and
// then runs the static well-formedness pass over it, so a malformed layout
// is rejected here — with a typed *verify.VerifyError naming the broken
// invariant — instead of surfacing later as a wrong trace or an engine
// crash. The exported, memoized entry point is BuildProgram in progcache.go.
func buildProgram(kind StackKind, v Version, feat features.Set, strat CloneStrategy, m arch.Machine) (*code.Program, error) {
	p, err := buildProgramUnverified(kind, v, feat, strat, m)
	if err != nil {
		return nil, err
	}
	if err := verify.Program(p, m); err != nil {
		return nil, fmt.Errorf("core: %v/%v/%v image rejected: %w", kind, v, strat, err)
	}
	return p, nil
}

// buildProgramUnverified constructs and links the image without the static
// checks; buildProgram wraps it.
func buildProgramUnverified(kind StackKind, v Version, feat features.Set, strat CloneStrategy, m arch.Machine) (*code.Program, error) {
	fns, spec := stackModels(kind, feat)
	base := code.NewProgram()
	if err := base.Add(fns...); err != nil {
		return nil, err
	}

	switch v {
	case STD:
		return base, base.Link()

	case OUT:
		p := layout.Outline(base)
		return p, p.Link()

	case CLO, BAD:
		p := layout.Outline(base)
		if v == BAD {
			return layout.Bad(p, spec, m)
		}
		switch strat {
		case MicroPosition:
			return layout.MicroPosition(p, spec, usageHint(spec), m, layout.DefaultCloneBase)
		case LinearLayout:
			return layout.Linear(p, spec, m, layout.DefaultCloneBase)
		default:
			return layout.Bipartite(p, spec, m, layout.DefaultCloneBase)
		}

	case PIN, ALL:
		p := layout.Outline(base)
		root, inlinable := inlineSpec(kind)
		p, err := layout.PathInline(p, root, inlinable)
		if err != nil {
			return nil, err
		}
		// Re-outline so the cold blocks spliced in from the inlined
		// callees move back out of the merged mainline.
		p = layout.Outline(p)
		if v == PIN {
			return p, p.Link()
		}
		inlSpec := layout.Spec{
			Path:    []string{"lance_rx", "lance_post"},
			Library: spec.Library,
		}
		return layout.Bipartite(p, inlSpec, m, layout.DefaultCloneBase)
	}
	return nil, fmt.Errorf("core: unknown version %d", v)
}
