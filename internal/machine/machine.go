// Package machine executes compiled IR on a simulated CPU: it applies the
// architecture model's cycle costs to every instruction, detects hardware
// traps when an access touches the protected page, and converts traps into
// precise NullPointerExceptions at marked exception sites — the role the OS
// signal handler plays in the paper's JIT.
//
// The machine is deliberately strict: a trap at an instruction that phase 2
// did not mark as an exception site is a simulation error (a real VM would
// crash), so optimizer bugs surface as errors rather than wrong numbers.
package machine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/obs"
	"trapnull/internal/rt"
)

// ExecStats counts dynamic events during execution.
type ExecStats struct {
	Instrs         int64 // instructions executed
	ExplicitChecks int64 // explicit null check instructions executed
	ImplicitSites  int64 // dereferences executed at implicit-check sites
	BoundChecks    int64
	Loads          int64
	Stores         int64
	Calls          int64
	TrapsTaken     int64 // hardware traps that became NPEs
	ThrownSoftware int64 // exceptions raised by explicit checks and checks
}

// Machine executes functions against one heap and one architecture model.
type Machine struct {
	Arch  *arch.Model
	Heap  *rt.Heap
	Prog  *ir.Program
	Stats ExecStats
	// Cycles accumulates the simulated execution time.
	Cycles int64
	// MaxSteps bounds total executed instructions (runaway guard).
	MaxSteps int64
	// Engine selects the execution engine. New installs DefaultEngine; both
	// engines produce identical Outcome/ExecStats/Cycles, so this only
	// trades host speed for reference simplicity.
	Engine Engine
	// injectedStepFault marks MaxSteps as a chaos-armed engine fault
	// (InjectStepFault) rather than the runaway guard, and calls counts
	// Calls: the decision log's invocation clock. Both sit beside Engine so
	// the three share a word.
	injectedStepFault bool
	calls             int32
	// Profile, when non-nil, receives per-block entry counts from both
	// engines (obs layer; benchtab -profile). Only the caller attaches it,
	// and nothing the machine decides or charges reads it. Block entries
	// are semantic facts, so the two engines record identical profiles.
	// Disabled cost: one nil test per function call and one slice-nil test
	// per block.
	Profile *obs.ExecProfile
	// Abort, when non-nil, is polled at block entry by both engines; once it
	// reads true the call unwinds with ErrAborted. The bench harness sets it
	// from a deadline goroutine (Options.CellTimeout) so a runaway cell is
	// cancelled cooperatively instead of hanging the sweep. Disabled cost:
	// one nil test per block entry.
	Abort *atomic.Bool
	// decisions is the decision log (Decisions), made at the first
	// decision: a pointer, so a machine that decides nothing pays one word
	// and no allocation.
	decisions *[]obs.RecEvent

	steps int64
	// attr, made by EnableAttribution, holds trap-cost attribution's
	// counter cells by instruction: prepare binds one at every explicit
	// check and implicit (ExcSite) site of an untiered machine, and
	// CycleAttribution splits the run's cycles into per-trap-site buckets
	// from them afterwards.
	attr map[*ir.Instr]*obs.CheckCounts
	// tier, when non-nil, drives tiered adaptive execution (EnableTiering):
	// per-method promotion interpreter → closure engine → speculative
	// recompile, and trap-triggered deoptimization. Untiered cost: one nil
	// test per call.
	tier *tierController
	// fns holds per-function pre-decoded instruction tables and, for
	// EngineClosure, closure-compiled code, keyed by *ir.Func identity.
	// Made on first use; an entry lives until ResetPrepared empties it.
	fns map[*ir.Func]*fnEntry
	// frames is the activation-record pool both engines draw locals from,
	// linked through frame.link.
	frames *frame
	// args is the interpreter's call-argument buffer (callTarget).
	args []int64
	// closureRuns counts closure-engine entries (ClosureRuns).
	closureRuns int64
	// heapLo is max(rt.HeapBase, Arch.TrapAreaBytes): the closure engine's
	// heap fast path takes addresses at or above it (see finishLoad).
	heapLo int64
}

// New returns a machine for the given model and program.
func New(m *arch.Model, prog *ir.Program) *Machine {
	return &Machine{
		Arch:     m,
		Heap:     rt.NewHeap(),
		Prog:     prog,
		MaxSteps: 2_000_000_000,
		Engine:   DefaultEngine,
	}
}

// ClosureRuns returns how many invocations entered the closure engine on
// this machine, counting each on-stack replacement from the interpreter as
// one. Differential tests read it to prove their closure side ran compiled
// code rather than the interpreter.
func (m *Machine) ClosureRuns() int64 { return m.closureRuns }

// ErrStepLimit reports that execution exceeded MaxSteps.
var ErrStepLimit = errors.New("machine: step limit exceeded")

// ErrInjectedFault reports an armed chaos fault (InjectStepFault) firing.
var ErrInjectedFault = errors.New("machine: injected fault")

// ErrAborted reports that the Abort flag cancelled the call.
var ErrAborted = errors.New("machine: aborted")

// ErrHeapFull reports an allocation refused because it would take the heap
// past rt.MaxWords.
var ErrHeapFull = errors.New("machine: heap full")

// InjectStepFault arms a deterministic engine fault: execution halts at
// dynamic step count step with an injected-fault error. It reuses the
// step-limit choke point both engines share, so the reported fault names the
// same function at the same count on either engine — the chaos harness diffs
// exactly that. The arm is logged as a decision about subject (the run it
// names). Steps at or beyond the current MaxSteps are ignored.
func (m *Machine) InjectStepFault(step int64, subject string) {
	if step > 0 && step < m.MaxSteps {
		m.MaxSteps = step
		m.injectedStepFault = true
		m.decide("chaos", "step-fault-arm", subject, -1, 0, fmt.Sprintf("fires at step %d", step))
	}
}

// decide appends one adaptive decision to the machine's decision log,
// stamped with the current invocation and step: the tier controller, the
// governor and the chaos choke point record through it, at decision points
// only, never on the per-instruction path.
func (m *Machine) decide(cat, kind, subject string, ord, count int, detail string) {
	if m.decisions == nil {
		m.decisions = new([]obs.RecEvent)
	}
	*m.decisions = append(*m.decisions, obs.RecEvent{Invocation: int(m.calls), Step: m.steps,
		Cat: cat, Kind: kind, Subject: subject, Ord: ord, Count: count, Detail: detail})
}

// Decisions returns the machine's decision log in occurrence order: every
// promotion, deopt, demotion, pin and chaos arm or fire. It has no cap: the
// controllers' budgets bound the decisions a machine makes per method (one
// promote-t1, TierPolicy.SpecRecompileBudget promote-t2s and deopts,
// GovernorPolicy.RecompileBudget demotes or pins, each with one
// backoff-armed).
func (m *Machine) Decisions() []obs.RecEvent {
	if m.decisions == nil {
		return nil
	}
	return slices.Clip(*m.decisions)
}

// Outcome is the result of a call: a normal value or an exception that
// escaped the function.
type Outcome struct {
	Value int64
	Exc   rt.ExcKind
	// ExcRef is the escaped exception object (0 when Exc is ExcNone). It
	// keeps the invocation's allocations from being reclaimed (see Call),
	// so it stays readable after later Calls.
	ExcRef int64
}

// Call runs fn with the given arguments and returns its outcome.
//
// The invocation's heap allocations are reclaimed when nothing outside the
// heap can reach them: fn returned without a simulation error or an escaped
// exception, and takes and returns no reference. The IR has no static
// fields, so then nothing it allocated is reachable. The words are released
// when the next Call begins, and only if nothing was allocated in between,
// so after a Call the heap stays intact and readable until the next Call.
// Addresses never affect cycles, outcomes or trap classification.
func (m *Machine) Call(fn *ir.Func, args ...int64) (Outcome, error) {
	if len(args) != fn.NumParams {
		return Outcome{}, fmt.Errorf("machine: %s expects %d args, got %d", fn.Name, fn.NumParams, len(args))
	}
	m.calls++
	mark := m.Heap.BeginInvocation()
	out, err := m.invoke(fn, args, 0)
	if err == nil && out.ExcRef == 0 && !holdsRefs(fn) {
		m.Heap.EndInvocation(mark)
	}
	return out, err
}

// holdsRefs reports whether fn takes or returns a reference.
func holdsRefs(fn *ir.Func) bool {
	if fn.HasResult && fn.ResultKind == ir.KindRef {
		return true
	}
	for _, l := range fn.Locals[:fn.NumParams] {
		if l.Kind == ir.KindRef {
			return true
		}
	}
	return false
}

// invoke is the machine's one call dispatcher. On a tiered machine the
// method's rung picks the artifact: its tier-2 body, its conservative body
// compiled once promoted, or that body interpreted at tier 0; a body outside
// the program runs compiled at once. Otherwise fn runs in the closure engine
// once it has closure code. Everything else is interpreted, and interp
// counts fn's block entries down and hands the invocation over when fn
// turns hot, so code that runs once is never compiled.
func (m *Machine) invoke(fn *ir.Func, args []int64, depth int) (Outcome, error) {
	if m.tier != nil {
		mt := m.tier.stateOf(fn)
		switch {
		case mt == nil:
			return m.execCf(fn, m.compiled(fn), args, depth)
		case mt.tier == tierSpec:
			return m.execCf(mt.fn2, mt.cf2, args, depth)
		case mt.tier != tierInterp:
			return m.execCf(mt.fn0, m.compiled(mt.fn0), args, depth)
		}
		fn = mt.fn0
	}
	e := m.prepare(fn)
	if e.cf != nil && m.Engine == EngineClosure {
		return m.execCf(fn, e.cf, args, depth)
	}
	return m.exec(fn, e, args, depth)
}

// hot is called when fn's countdown expires and returns the code the
// interpreting frame hands over to: an untiered machine compiles fn, a
// tiered one promotes fn's method to tier 1. nil means an earlier frame
// already promoted the method, and this frame finishes interpreted.
func (m *Machine) hot(fn *ir.Func) *cFunc {
	if m.tier == nil {
		return m.compiled(fn)
	}
	return m.tier.promoteT1(fn)
}

// stepLimitErr is the shared step-limit error; both engines must produce the
// byte-identical message at the identical dynamic instruction count.
func (m *Machine) stepLimitErr(fn *ir.Func) error {
	if m.injectedStepFault {
		m.decide("chaos", "step-fault-fire", fn.Name, -1, 0, fmt.Sprintf("armed at step %d", m.MaxSteps))
		return fmt.Errorf("machine: injected step fault in %s at step %d: %w", fn.Name, m.MaxSteps, ErrInjectedFault)
	}
	return fmt.Errorf("machine: %s exceeded %d steps: %w", fn.Name, m.MaxSteps, ErrStepLimit)
}

// raise describes an in-flight exception during exec.
type raise struct {
	kind     rt.ExcKind
	ref      int64
	hardware bool
}

const maxCallDepth = 256

// exec interprets fn from its entry block; e is fn's table entry. Its
// locals come from the machine's frame pool, as the closure engine's do.
func (m *Machine) exec(fn *ir.Func, e *fnEntry, args []int64, depth int) (Outcome, error) {
	if depth > maxCallDepth {
		return Outcome{}, fmt.Errorf("machine: call depth exceeded in %s", fn.Name)
	}
	fr := m.frameGet(fn.NumLocals())
	defer m.framePut(fr)
	copy(fr.locals, args)
	return m.interp(fn, e, fr.locals, fn.Entry, -1, depth)
}

// interp is the reference interpreter loop, entered at instruction from of
// blk; e is fn's table entry. from < 0 enters blk from the top, running its
// block-entry hooks (abort poll, hot countdown, profile count); from >= 0
// resumes blk mid-block with those hooks skipped, because the closure
// engine already ran them before it handed the invocation over (runCf, at a
// stretch the step limit could fire in). This loop holds the machine's only
// per-instruction accounting.
func (m *Machine) interp(fn *ir.Func, e *fnEntry, locals []int64, blk *ir.Block, from, depth int) (Outcome, error) {
	pf := e.pf

	var prof []int64
	if m.Profile != nil {
		prof = m.Profile.Counters(fn)
	}
	// cold is fn's entry while its hot countdown is armed (see fnEntry), so
	// the per-block cost is one nil test, or one decrement-and-test while
	// counting. The countdown runs BEFORE the profile increment so an
	// on-stack replacement hands over "about to enter this block" and the
	// closure engine's loop top counts the entry exactly once. A function
	// the closure engine hands back at the step limit already has code, so
	// its countdown neither runs nor restarts.
	var cold *fnEntry
	if e.countdown > 0 {
		cold = e
	}

	hooks := from < 0
	from = max(from, 0)
	for ; ; hooks, from = true, 0 {
		if hooks {
			if m.Abort != nil && m.Abort.Load() {
				return Outcome{}, ErrAborted
			}
			if cold != nil {
				cold.countdown--
				if cold.countdown <= 0 {
					if cf := m.hot(fn); cf != nil {
						return m.execCfFrom(fn, cf, locals, blk.ID, depth)
					}
					cold = nil
				}
			}
			if prof != nil {
				prof[blk.ID]++
			}
		}
		var pending *raise
		pins := pf.block(blk.ID)[from:]
	instrLoop:
		for pi := range pins {
			pin := &pins[pi]
			in := pin.in
			// in's operands are pf.ops[k:k+len(in.Args)], read through pf:
			// a copy of the slice held here costs the loop two registers,
			// and it then keeps its counter in memory.
			k := int(pin.arg)
			m.steps++
			if m.steps > m.MaxSteps {
				return Outcome{}, m.stepLimitErr(fn)
			}
			m.Stats.Instrs++
			if in.ExcSite {
				m.Stats.ImplicitSites++
				if pin.chk != nil {
					// Governed and attribution-enabled machines profile
					// per-site executions; the cell is nil everywhere else.
					pin.chk.Execs++
				}
			}
			m.Cycles += int64(pin.cost)

			switch in.Op {
			case ir.OpMove:
				locals[in.Dst] = val(locals, &pf.ops[k])
			case ir.OpAdd:
				locals[in.Dst] = val(locals, &pf.ops[k]) + val(locals, &pf.ops[k+1])
			case ir.OpSub:
				locals[in.Dst] = val(locals, &pf.ops[k]) - val(locals, &pf.ops[k+1])
			case ir.OpMul:
				locals[in.Dst] = val(locals, &pf.ops[k]) * val(locals, &pf.ops[k+1])
			case ir.OpDiv, ir.OpRem:
				d := val(locals, &pf.ops[k+1])
				if d == 0 {
					pending = m.throw(rt.ExcArithmetic)
					break instrLoop
				}
				if in.Op == ir.OpDiv {
					locals[in.Dst] = val(locals, &pf.ops[k]) / d
				} else {
					locals[in.Dst] = val(locals, &pf.ops[k]) % d
				}
			case ir.OpAnd:
				locals[in.Dst] = val(locals, &pf.ops[k]) & val(locals, &pf.ops[k+1])
			case ir.OpOr:
				locals[in.Dst] = val(locals, &pf.ops[k]) | val(locals, &pf.ops[k+1])
			case ir.OpXor:
				locals[in.Dst] = val(locals, &pf.ops[k]) ^ val(locals, &pf.ops[k+1])
			case ir.OpShl:
				locals[in.Dst] = val(locals, &pf.ops[k]) << (uint64(val(locals, &pf.ops[k+1])) & 63)
			case ir.OpShr:
				locals[in.Dst] = val(locals, &pf.ops[k]) >> (uint64(val(locals, &pf.ops[k+1])) & 63)
			case ir.OpNeg:
				locals[in.Dst] = -val(locals, &pf.ops[k])
			case ir.OpNot:
				locals[in.Dst] = ^val(locals, &pf.ops[k])
			case ir.OpFAdd:
				locals[in.Dst] = fbits(fval(locals, &pf.ops[k]) + fval(locals, &pf.ops[k+1]))
			case ir.OpFSub:
				locals[in.Dst] = fbits(fval(locals, &pf.ops[k]) - fval(locals, &pf.ops[k+1]))
			case ir.OpFMul:
				locals[in.Dst] = fbits(fval(locals, &pf.ops[k]) * fval(locals, &pf.ops[k+1]))
			case ir.OpFDiv:
				locals[in.Dst] = fbits(fval(locals, &pf.ops[k]) / fval(locals, &pf.ops[k+1]))
			case ir.OpFNeg:
				locals[in.Dst] = fbits(-fval(locals, &pf.ops[k]))
			case ir.OpIntToFloat:
				locals[in.Dst] = fbits(float64(val(locals, &pf.ops[k])))
			case ir.OpFloatToInt:
				locals[in.Dst] = int64(fval(locals, &pf.ops[k]))
			case ir.OpCmp:
				if compareCond(in.Cond, &pf.ops[k], &pf.ops[k+1], locals) {
					locals[in.Dst] = 1
				} else {
					locals[in.Dst] = 0
				}
			case ir.OpMath:
				locals[in.Dst] = fbits(mathFn(in.Fn, fval(locals, &pf.ops[k])))
			case ir.OpInstanceOf:
				// instanceof never faults: null is simply not an instance.
				ref := val(locals, &pf.ops[k])
				locals[in.Dst] = 0
				if ref != 0 && m.Heap.ClassIDOf(ref) == int64(in.Class.ID) {
					locals[in.Dst] = 1
				}

			case ir.OpNullCheck:
				if in.SpecGuard != 0 {
					// Tier-2 speculation guard: costs nothing and counts as no
					// explicit check. A null fires it as a hardware trap —
					// the same NPE at the same program point the explicit
					// check would have raised — and deoptimizes.
					if val(locals, &pf.ops[k]) == 0 {
						pending = m.trap()
						if m.tier != nil {
							m.tier.guard = in // deoptimized by settle
						}
						break instrLoop
					}
					break
				}
				m.Stats.ExplicitChecks++
				if pin.chk != nil {
					pin.chk.Execs++
				}
				if val(locals, &pf.ops[k]) == 0 {
					if pin.chk != nil {
						pin.chk.Nulls++
					}
					m.Stats.ThrownSoftware++
					pending = m.throw(rt.ExcNullPointer)
					break instrLoop
				}

			case ir.OpNew:
				ref := m.Heap.AllocObject(in.Class)
				if ref == 0 {
					return Outcome{}, heapFullErr(in)
				}
				locals[in.Dst] = ref
			case ir.OpNewArray:
				n := val(locals, &pf.ops[k])
				if n < 0 {
					pending = m.throw(rt.ExcNegativeArraySize)
					break instrLoop
				}
				ref := m.Heap.AllocArray(n)
				if ref == 0 {
					return Outcome{}, heapFullErr(in)
				}
				m.Cycles += m.Arch.AllocPerWordCycles * n
				locals[in.Dst] = ref

			case ir.OpGetField:
				m.Stats.Loads++
				v, r, err := m.load(in, val(locals, &pf.ops[k])+int64(in.Field.Offset))
				if err != nil {
					return Outcome{}, err
				}
				if r != nil {
					pending = r
					break instrLoop
				}
				locals[in.Dst] = v
			case ir.OpPutField:
				m.Stats.Stores++
				r, err := m.storeWord(in, val(locals, &pf.ops[k])+int64(in.Field.Offset), val(locals, &pf.ops[k+1]))
				if err != nil {
					return Outcome{}, err
				}
				if r != nil {
					pending = r
					break instrLoop
				}
			case ir.OpArrayLength:
				m.Stats.Loads++
				v, r, err := m.load(in, val(locals, &pf.ops[k]))
				if err != nil {
					return Outcome{}, err
				}
				if r != nil {
					pending = r
					break instrLoop
				}
				locals[in.Dst] = v
			case ir.OpBoundCheck:
				m.Stats.BoundChecks++
				idx, n := val(locals, &pf.ops[k]), val(locals, &pf.ops[k+1])
				if idx < 0 || idx >= n {
					m.Stats.ThrownSoftware++
					pending = m.throw(rt.ExcArrayIndexOutOfBounds)
					break instrLoop
				}
			case ir.OpArrayLoad:
				m.Stats.Loads++
				addr := val(locals, &pf.ops[k]) + ir.ArrayHeaderBytes + val(locals, &pf.ops[k+1])*ir.WordBytes
				v, r, err := m.load(in, addr)
				if err != nil {
					return Outcome{}, err
				}
				if r != nil {
					pending = r
					break instrLoop
				}
				locals[in.Dst] = v
			case ir.OpArrayStore:
				m.Stats.Stores++
				addr := val(locals, &pf.ops[k]) + ir.ArrayHeaderBytes + val(locals, &pf.ops[k+1])*ir.WordBytes
				r, err := m.storeWord(in, addr, val(locals, &pf.ops[k+2]))
				if err != nil {
					return Outcome{}, err
				}
				if r != nil {
					pending = r
					break instrLoop
				}

			case ir.OpCallStatic, ir.OpCallVirtual:
				m.Stats.Calls++
				if in.Op == ir.OpCallVirtual {
					// Dispatch reads the header slot: the trap point.
					m.Stats.Loads++
					_, r, err := m.load(in, val(locals, &pf.ops[k]))
					if err != nil {
						return Outcome{}, err
					}
					if r != nil {
						pending = r
						break instrLoop
					}
				}
				out, err := m.callTarget(in, pf.ops[k:k+len(in.Args)], locals, depth)
				if err != nil {
					return Outcome{}, err
				}
				if out.Exc != rt.ExcNone {
					pending = &raise{kind: out.Exc, ref: out.ExcRef}
					break instrLoop
				}
				if in.HasDst() {
					locals[in.Dst] = out.Value
				}

			case ir.OpJump:
				blk = in.Targets[0]
				goto nextBlock
			case ir.OpIf:
				if compareCond(in.Cond, &pf.ops[k], &pf.ops[k+1], locals) {
					blk = in.Targets[0]
				} else {
					blk = in.Targets[1]
				}
				goto nextBlock
			case ir.OpReturn:
				if len(in.Args) == 1 {
					return Outcome{Value: val(locals, &pf.ops[k])}, nil
				}
				return Outcome{}, nil
			case ir.OpThrow:
				ref := val(locals, &pf.ops[k])
				m.Stats.ThrownSoftware++
				pending = &raise{kind: m.Heap.ExcKindOf(ref), ref: ref}
				break instrLoop

			default:
				return Outcome{}, fmt.Errorf("machine: cannot execute %s", in.Op)
			}
		}

		if pending != nil {
			if pending == heapFullRaise {
				return Outcome{}, heapFullRaiseErr(fn)
			}
			if fn0 := m.tier.settle(fn); fn0 != nil {
				// A fired speculation guard deoptimized the method: the
				// invocation continues in the conservative artifact, whose
				// blocks and try regions align with fn's.
				fn, pf = fn0, m.prepare(fn0).pf
				if prof != nil {
					prof = m.Profile.Counters(fn)
				}
			}
			// Exception dispatch: the innermost try region of the faulting
			// block, else propagate to the caller.
			if blk.Try != ir.NoTry {
				region := fn.Regions[blk.Try]
				if region.ExcVar != ir.NoVar {
					locals[region.ExcVar] = pending.ref
				}
				blk = region.Handler
				continue
			}
			return Outcome{Exc: pending.kind, ExcRef: pending.ref}, nil
		}
		// A block must end in a terminator; reaching here means Return
		// already returned or a jump was taken.
		return Outcome{}, fmt.Errorf("machine: block %s of %s fell through", blk, fn.Name)

	nextBlock:
	}
}

// throw allocates an exception object and charges the software-throw cost.
func (m *Machine) throw(k rt.ExcKind) *raise {
	m.Cycles += m.Arch.TrapDispatchCycles / 5
	return m.raiseNew(k, false)
}

// trap converts a hardware trap into an NPE, charging the full OS dispatch.
func (m *Machine) trap() *raise {
	m.Stats.TrapsTaken++
	m.Cycles += m.Arch.TrapDispatchCycles
	return m.raiseNew(rt.ExcNullPointer, true)
}

// heapFullRaise is the raise throw and trap return when the heap has no
// room for the exception object; both engines turn it into a simulation
// error where they dispatch it.
var heapFullRaise = new(raise)

// raiseNew allocates the exception object of a raise of kind k.
func (m *Machine) raiseNew(k rt.ExcKind, hardware bool) *raise {
	ref := m.Heap.AllocException(k)
	if ref == 0 {
		return heapFullRaise
	}
	return &raise{kind: k, ref: ref, hardware: hardware}
}

// heapFullErr is the error both engines return for a new or newarray the
// heap refuses.
func heapFullErr(in *ir.Instr) error {
	return fmt.Errorf("machine: %s refused: the heap holds at most %d words: %w", in, rt.MaxWords, ErrHeapFull)
}

// heapFullRaiseErr is the error for an exception raised in fn the heap has
// no room for.
func heapFullRaiseErr(fn *ir.Func) error {
	return fmt.Errorf("machine: no room for an exception object in %s: %w", fn.Name, ErrHeapFull)
}

// siteTrap is the shared trap bookkeeping for an implicit-check site: both
// engines funnel their trap-candidate loads and stores through it, so the
// governor and the attribution ledger see every hardware trap exactly once.
// Under a governor the canonical site cell is incremented by siteTrapped; on
// an untiered machine with attribution the null lands in the site's
// attribution cell.
func (m *Machine) siteTrap(in *ir.Instr) *raise {
	r := m.trap()
	if m.tier != nil {
		m.tier.siteTrapped(in)
	} else if c := m.attr[in]; c != nil {
		c.Nulls++
	}
	return r
}

// load performs a memory read with full trap semantics.
func (m *Machine) load(in *ir.Instr, addr int64) (int64, *raise, error) {
	switch m.Heap.Classify(addr, m.Arch.TrapAreaBytes) {
	case rt.AccessOK:
		return m.Heap.Load(addr), nil, nil
	case rt.AccessTrapCandidate:
		if !m.Arch.TrapOnRead {
			// The OS does not trap reads here (AIX): the program silently
			// reads zero. Legal only for speculated loads; for anything
			// else this is the "Illegal Implicit" behaviour — a missed NPE.
			return 0, nil, nil
		}
		if in.ExcSite {
			return 0, m.siteTrap(in), nil
		}
		return 0, nil, fmt.Errorf("machine: unexpected read trap at %s (addr %#x)", in, addr)
	default:
		// Unprotected garbage: no trap possible, reads yield zero.
		return 0, nil, nil
	}
}

// storeWord performs a memory write with full trap semantics.
func (m *Machine) storeWord(in *ir.Instr, addr, v int64) (*raise, error) {
	switch m.Heap.Classify(addr, m.Arch.TrapAreaBytes) {
	case rt.AccessOK:
		m.Heap.Store(addr, v)
		return nil, nil
	case rt.AccessTrapCandidate:
		if !m.Arch.TrapOnWrite {
			return nil, nil
		}
		if in.ExcSite {
			return m.siteTrap(in), nil
		}
		return nil, fmt.Errorf("machine: unexpected write trap at %s (addr %#x)", in, addr)
	default:
		// Writes into the unprotected gap vanish.
		return nil, nil
	}
}

// callTarget invokes the callee of call instruction in, whose operands are
// args.
func (m *Machine) callTarget(in *ir.Instr, args []pOp, locals []int64, depth int) (Outcome, error) {
	cal := in.Callee
	if cal.Fn == nil {
		if cal.Intrinsic != ir.MathNone {
			// Runtime-implemented math (the call form used on models
			// without the hardware instruction).
			m.Cycles += m.Arch.MathCycles
			if len(args) == 0 {
				return Outcome{}, fmt.Errorf("machine: intrinsic %s without args", cal.QualifiedName())
			}
			return Outcome{Value: fbits(mathFn(cal.Intrinsic, fval(locals, &args[len(args)-1])))}, nil
		}
		return Outcome{}, fmt.Errorf("machine: call to bodyless method %s", cal.QualifiedName())
	}
	// Every engine entry copies its arguments into the callee's frame
	// before it runs anything, so one machine-wide buffer serves every
	// depth.
	if cap(m.args) < len(args) {
		m.args = make([]int64, len(args))
	}
	words := m.args[:len(args)]
	for i := range args {
		words[i] = val(locals, &args[i])
	}
	// A hot callee may already run compiled (or speculative) code while
	// this caller interprets.
	return m.invoke(cal.Fn, words, depth+1)
}

// compareCond evaluates c over operands a0 and a1, using float comparison
// when either side is float-kinded (pre-decoded into pOp.isFloat).
func compareCond(c ir.Cond, a0, a1 *pOp, locals []int64) bool {
	if a0.isFloat || a1.isFloat {
		a, b := fval(locals, a0), fval(locals, a1)
		switch c {
		case ir.CondEQ:
			return a == b
		case ir.CondNE:
			return a != b
		case ir.CondLT:
			return a < b
		case ir.CondLE:
			return a <= b
		case ir.CondGT:
			return a > b
		case ir.CondGE:
			return a >= b
		}
	}
	a, b := val(locals, a0), val(locals, a1)
	switch c {
	case ir.CondEQ:
		return a == b
	case ir.CondNE:
		return a != b
	case ir.CondLT:
		return a < b
	case ir.CondLE:
		return a <= b
	case ir.CondGT:
		return a > b
	case ir.CondGE:
		return a >= b
	}
	return false
}

func fbits(f float64) int64 { return int64(math.Float64bits(f)) }

func mathFn(fn ir.MathFn, x float64) float64 {
	switch fn {
	case ir.MathExp:
		return math.Exp(x)
	case ir.MathLog:
		return math.Log(x)
	case ir.MathSin:
		return math.Sin(x)
	case ir.MathCos:
		return math.Cos(x)
	case ir.MathSqrt:
		return math.Sqrt(x)
	case ir.MathAbs:
		return math.Abs(x)
	case ir.MathPow:
		return x // unary form unsupported; Pow uses two args elsewhere
	}
	return x
}
