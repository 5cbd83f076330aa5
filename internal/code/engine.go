package code

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/sim/cpu"
)

// maxCallDepth bounds model recursion; protocol stacks in the paper are at
// most a dozen deep, so hitting this indicates a cycle in the call graph.
const maxCallDepth = 64

// AttrSink observes function boundaries during model execution. The engine
// calls EnterFunc when it starts executing a function model and ExitFunc
// when that model returns (or unwinds on an error), so a sink can attribute
// the CPU and memory-system counters accumulated in between to the function
// that was running. The hook fires once per call, not per instruction; with
// a nil sink the engine's hot path pays only a pointer comparison.
type AttrSink interface {
	// EnterFunc is called immediately before the named function's first
	// block executes.
	EnterFunc(name string)
	// ExitFunc is called after the named function's model has finished
	// (epilogue and return jump included).
	ExitFunc(name string)
}

// Engine executes code models against the CPU/memory simulator. One engine
// serves one host; its Program must be fully placed (Link or FinishLayout)
// before Run is called.
type Engine struct {
	cpu  *cpu.CPU
	prog *Program
	// data holds the effective addresses of one run's loads and stores.
	data [maxRunData]uint64
	// Observer, when non-nil, sees every emitted trace entry, in
	// execution order; the experiment harness uses it for the Table-3
	// counts and the trace files that micro-positioning consumes. A body
	// run's entries are rebuilt from the run and delivered just before
	// the CPU executes it, so an observer must only consume entries,
	// never read CPU state.
	Observer func(cpu.Entry)
	// Executed, when non-nil, sees every stretch of consecutive
	// instructions executed, as its first address and its length: once
	// per compiled body run, and once with n = 1 per stepped terminator
	// or epilogue instruction. It carries no per-instruction detail, so
	// coverage analysis (Table 9) pays per run rather than per
	// instruction.
	Executed func(addr uint64, n int)
	// Attr, when non-nil, is notified of every function entry and exit so
	// the observability layer can attribute cycles and misses to the
	// function executing them. Runs end at calls, so every boundary falls
	// between two runs. Nil (the default) costs one nil check per
	// function call.
	Attr AttrSink
}

// NewEngine returns an engine executing prog on c.
func NewEngine(c *cpu.CPU, prog *Program) *Engine {
	return &Engine{cpu: c, prog: prog}
}

// CPU returns the attached CPU.
func (e *Engine) CPU() *cpu.CPU { return e.cpu }

// Program returns the program under execution.
func (e *Engine) Program() *Program { return e.prog }

// SetProgram swaps the program (used when an experiment re-links with a
// different layout while keeping the simulated machine state).
func (e *Engine) SetProgram(p *Program) { e.prog = p }

// Run executes the named function's model under env; a nil env binds
// nothing.
func (e *Engine) Run(fn string, env *Binding) error {
	pl, err := e.prog.resolve(fn)
	if err != nil {
		return err
	}
	return execModel(e, pl, env, 0)
}

// execModel executes a function model from the top of a call tree. It is
// Engine.call; the differential tests swap in the per-instruction
// reference engine to hold the compiled path to it.
var execModel = (*Engine).call

// MustRun is Run for callers that treat a model error as a bug.
func (e *Engine) MustRun(fn string, env *Binding) {
	if err := e.Run(fn, env); err != nil {
		panic(fmt.Sprintf("code: MustRun(%s): %v", fn, err))
	}
}

// observeRun feeds obs the entries of one run: instrs placed from addr,
// with the loads' and stores' effective addresses in data.
func observeRun(obs func(cpu.Entry), instrs []Instr, addr uint64, data []uint64) {
	for i := range instrs {
		entry := cpu.Entry{Addr: addr + uint64(i*instrBytes), Op: instrs[i].Op}
		if entry.Op.AccessesMemory() {
			entry.DataAddr, data = data[0], data[1:]
		}
		obs(entry)
	}
}

func (e *Engine) step(entry cpu.Entry) {
	if e.Observer != nil {
		e.Observer(entry)
	}
	if e.Executed != nil {
		e.Executed(entry.Addr, 1)
	}
	e.cpu.Step(entry)
}

// dataAddr resolves the effective address of a load/store operand. The
// binding is consulted first (run-time state shadows static storage);
// named operands it does not bind use the static address LinkData cached
// on the instruction, and unnamed operands model a stack-frame access.
func dataAddr(env *Binding, in *Instr) uint64 {
	if in.data == 0 {
		if base, ok := env.addr(stackID); ok {
			return base + uint64(in.Off)%256
		}
		return DefaultDataBase + uint64(in.Off)
	}
	if base, ok := env.addr(in.data); ok {
		return base + uint64(in.Off)
	}
	if in.staticOK {
		return in.staticBase + uint64(in.Off)
	}
	return DefaultDataBase + uint64(in.Off)
}

// resolve returns the placement of the named function, or the error a call
// to it reports.
func (p *Program) resolve(name string) (*Placement, error) {
	f := p.funcs[name]
	if f == nil {
		return nil, fmt.Errorf("code: call to unknown function %q", name)
	}
	pl := p.PlacementOf(f)
	if pl == nil {
		return nil, fmt.Errorf("code: function %q has no placement (program not linked)", name)
	}
	return pl, nil
}

// callee returns the placement a call instruction transfers to: the
// placement slice indexed by its callee id, or, when that misses, the
// error the by-name lookup reports.
func (p *Program) callee(in *Instr) (*Placement, error) {
	if id := in.callee; int(id) < len(p.placements) {
		if pl := p.placements[id]; pl != nil {
			return pl, nil
		}
	}
	return p.resolve(in.Call())
}

// maxRunData bounds the loads and stores of one run, so their effective
// addresses fit the engine's fixed buffer.
const maxRunData = 32

// bodyCode is a block body compiled for one issue model: its runs in
// order, each ending at a call or after maxRunData memory operands. The
// bodies a block compiled for other models chain through next.
type bodyCode struct {
	model *cpu.Model
	runs  []*cpu.Run
	next  *bodyCode
}

// body returns pb's body compiled for model m, compiling it on first use.
// Placed blocks are shared by every engine executing the program, so the
// chain only ever grows by an atomic swap of its head.
func (pb *placedBlock) body(m *cpu.Model) *bodyCode {
	head := pb.code.Load()
	for bc := head; bc != nil; bc = bc.next {
		if bc.model == m {
			return bc
		}
	}
	instrs := pb.b.Instrs
	bc := &bodyCode{model: m}
	ops := make([]arch.Op, 0, len(instrs))
	start, data := 0, 0
	for i := range instrs {
		in := &instrs[i]
		ops = append(ops, in.Op)
		if in.Op.AccessesMemory() {
			data++
		}
		if isCall(in) || data == maxRunData || i == len(instrs)-1 {
			bc.runs = append(bc.runs, m.Compile(pb.addr+uint64(start*instrBytes), ops))
			ops, start, data = ops[:0], i+1, 0
		}
	}
	for {
		bc.next = head
		if pb.code.CompareAndSwap(head, bc) {
			return bc
		}
		head = pb.code.Load()
		for other := head; other != nil; other = other.next {
			if other.model == m {
				return other
			}
		}
	}
}

// isCall reports whether in is a call: a jump naming its callee.
func isCall(in *Instr) bool { return in.IsCall() && in.Op == arch.OpJump }

// call executes one function model. The loop works entirely on the placed
// blocks the linker resolved: successors and fall-throughs are pointers and
// callees are indices, so a block transition costs a comparison and a call
// an index rather than a label- or name-map lookup. A block body executes
// as its compiled runs (see cpu.Run): per run, the engine resolves the
// effective address of each load and store, feeds the observer the run's
// entries and the Executed hook its stretch if they are installed, and
// hands the run to the CPU; a run that ends in a call then recurses into
// the callee.
func (e *Engine) call(pl *Placement, env *Binding, depth int) error {
	name := pl.fn.Name
	if depth > maxCallDepth {
		return fmt.Errorf("code: call depth exceeded at %q (cycle in code models?)", name)
	}

	if e.Attr != nil {
		e.Attr.EnterFunc(name)
	}
	// The hooks and CPU cannot change while a model executes (hooks are
	// installed between Run invocations, never from model code), so hoist
	// them out of the loop: the common hook-less case then pays nothing
	// per run.
	obs, executed := e.Observer, e.Executed
	c := e.cpu
	model := c.Model()
	pb := pl.entry
	for {
		addr := pb.addr
		// Block body.
		if instrs := pb.b.Instrs; len(instrs) > 0 {
			start := 0
			for _, r := range pb.body(model).runs {
				data := e.data[:0]
				for _, k := range r.MemOps() {
					data = append(data, dataAddr(env, &instrs[start+int(k)]))
				}
				end := start + r.Len()
				if obs != nil {
					observeRun(obs, instrs[start:end], addr, data)
				}
				if executed != nil {
					executed(addr, r.Len())
				}
				c.Exec(r, addr, data)
				addr += uint64(r.Len() * instrBytes)
				start = end
				if in := &instrs[end-1]; isCall(in) {
					callee, err := e.prog.callee(in)
					if err == nil {
						err = e.call(callee, env, depth+1)
					}
					if err != nil {
						if e.Attr != nil {
							e.Attr.ExitFunc(name)
						}
						return err
					}
				}
			}
		}
		// Terminator.
		switch pb.b.Term.Kind {
		case TermRet:
			epi := pl.fn.Epilogue
			for i := range epi {
				ein := &epi[i]
				entry := cpu.Entry{Addr: addr, Op: ein.Op}
				if ein.Op.AccessesMemory() {
					entry.DataAddr = dataAddr(env, ein)
				}
				e.step(entry)
				addr += instrBytes
			}
			e.step(cpu.Entry{Addr: addr, Op: arch.OpJump, Taken: true})
			if e.Attr != nil {
				e.Attr.ExitFunc(name)
			}
			return nil

		case TermJump:
			succ := pb.then
			if succ != pb.fallThrough {
				e.step(cpu.Entry{Addr: addr, Op: arch.OpBr, Taken: true})
			}
			pb = succ

		case TermCond:
			id := pb.b.cond
			if id == 0 {
				// Not linked since the block was written.
				id = valueSyms.lookup(pb.b.Term.Cond)
			}
			taken := env.cond(id)
			then, els := pb.then, pb.els
			succ := then
			if !taken {
				succ = els
			}
			switch {
			case els == pb.fallThrough:
				// Branch targets Then; fall through to Else.
				e.step(cpu.Entry{Addr: addr, Op: arch.OpCondBr, Taken: succ == then})
			case then == pb.fallThrough:
				// Inverted branch targets Else.
				e.step(cpu.Entry{Addr: addr, Op: arch.OpCondBr, Taken: succ == els})
			default:
				// Neither side falls through: branch to Then
				// plus an unconditional branch to Else.
				e.step(cpu.Entry{Addr: addr, Op: arch.OpCondBr, Taken: succ == then})
				if succ != then {
					e.step(cpu.Entry{Addr: addr + instrBytes, Op: arch.OpBr, Taken: true})
				}
			}
			pb = succ
		}
	}
}
