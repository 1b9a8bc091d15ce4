package machine

import (
	"fmt"
	"math"

	"trapnull/internal/ir"
	"trapnull/internal/rt"
)

// This file implements the closure-compiled (subroutine-threaded) engine.
// Instead of re-dispatching a switch on every dynamic instruction, each
// instruction is compiled once per (Machine, Func) into a step closure
// specialized on opcode and operand shape; hot adjacent pairs are fused into
// superinstructions; and every block runs as charged stretches: one
// steps/Instrs/Cycles update per stretch, with the unexecuted suffix rolled
// back on the rare early exit (raise or simulation error).
//
// The engine is required to be observationally identical to the reference
// switch interpreter in machine.go: same Outcome, same ExecStats, same
// Cycles, same errors. The accounting order per instruction is fixed by the
// reference — steps++ and the limit check first (a step over the limit is
// counted by `steps` but never reaches Instrs), then Instrs++, then the
// ImplicitSites bump for ExcSite instructions, then the static cycle cost,
// then the semantics. A stretch ends after every call and every terminator,
// so whatever runs after a stretch entry (a callee, the next block) sees
// exactly the reference's accounting; runSteps, the step-limit fallback,
// applies the order one instruction at a time. Differential tests pin it.
//
// Closures capture the Machine and its Arch's costs, so a Machine's Arch
// must not be swapped after the first Call (nothing in the repository does).

// status is the control-flow result of one step closure.
type status uint8

const (
	stNext   status = iota // fall through to the next instruction
	stJump                 // transfer to block frame.next
	stReturn               // function returns frame.out
	stRaise                // exception in frame.pending; dispatch to handler
	stErr                  // simulation error in frame.err
)

// frame is the per-call activation record. Frames are pooled on the Machine.
type frame struct {
	locals  []int64
	out     Outcome
	pending *raise
	err     error
	next    int // target block ID set by stJump steps
	depth   int
	// deoptFn/deoptCf, set by a fired speculation guard, transfer this
	// invocation to the conservative artifact at the raise dispatch (the two
	// artifacts are block-for-block aligned, so the swap is exact).
	deoptFn *ir.Func
	deoptCf *cFunc
}

// stepFn executes one instruction (or one fused superinstruction).
type stepFn func(fr *frame) status

// cStep is one unfused instruction of the step-limit fallback: the bare
// closure plus the static accounting runSteps applies before invoking it.
type cStep struct {
	step stepFn
	cost int64 // static cycle cost (m.Arch.Cost)
	imp  bool  // ExcSite: bump Stats.ImplicitSites
}

// cBlock is one compiled block: a sequence of charged stretches. Each
// stretch ends after a call (a callee's step counting must observe the
// caller's steps exactly as of the call, never a pre-charged suffix), after
// a terminator (a mid-block terminator must not leave the rest of its block
// charged) or at the block end. steps is the per-instruction form, run only
// when the step limit could fire inside a stretch.
type cBlock struct {
	segs    []cSeg
	steps   []cStep
	handler int      // handler block ID, or -1 outside any try region
	excVar  ir.VarID // handler's exception variable (NoVar when none)
	b       *ir.Block
}

// cSeg is one charged stretch: count/cycles/implicit are paid up front and
// an entry that exits early via raise or error rolls back its unexecuted
// suffix.
type cSeg struct {
	charged  []stepFn
	suffix   []suf // per charged entry: accounting of the entries after it
	count    int64
	cycles   int64
	implicit int64
	from     int // index into cb.steps of this stretch's first instruction
}

// suf is the accounting a charged stretch pre-paid for the instructions
// after one charged entry — the amount to roll back when that entry exits
// the block early via raise or simulation error.
type suf struct {
	count  int64
	cycles int64
	imp    int64
}

// cFunc is one function compiled for the closure engine, dense by block ID.
type cFunc struct {
	blocks []cBlock
	entry  int
}

// execClosure is the closure engine's counterpart of exec.
func (m *Machine) execClosure(fn *ir.Func, args []int64, depth int) (Outcome, error) {
	return m.execCf(fn, m.compiled(fn), args, depth)
}

// execCf runs an already-compiled function. Call sites keep their own
// (callee, cFunc) cache so the per-call map lookup in compiled() only
// happens when the call target actually changes.
func (m *Machine) execCf(fn *ir.Func, cf *cFunc, args []int64, depth int) (Outcome, error) {
	if depth > maxCallDepth {
		return Outcome{}, fmt.Errorf("machine: call depth exceeded in %s", fn.Name)
	}
	fr := m.frameGet(fn.NumLocals())
	defer m.framePut(fr)
	copy(fr.locals, args)
	fr.depth = depth
	return m.runCf(fn, cf, fr, cf.entry)
}

// execCfFrom enters the closure engine mid-function: the interpreter
// promotes a hot invocation at a block boundary (on-stack replacement),
// handing over its locals and the block it was about to enter. The depth was
// already checked by the interpreter's prologue.
func (m *Machine) execCfFrom(fn *ir.Func, cf *cFunc, locals []int64, startBlk, depth int) (Outcome, error) {
	fr := m.frameGet(len(locals))
	defer m.framePut(fr)
	copy(fr.locals, locals)
	fr.depth = depth
	return m.runCf(fn, cf, fr, startBlk)
}

// runCf is the closure engine's block loop. fn and cf can change while the
// loop runs: a tier-1→2 promotion swaps in the speculative artifact and a
// fired speculation guard swaps back to the conservative one — both
// artifacts are block-for-block aligned, so locals and the current block ID
// carry over unchanged.
func (m *Machine) runCf(fn *ir.Func, cf *cFunc, fr *frame, blkID int) (Outcome, error) {
	var prof []int64
	if m.Profile != nil {
		prof = m.Profile.Counters(fn)
	}
	// One tier-state fetch per call; the block path pays one nil test when
	// untiered, one decrement-and-test while counting toward promotion. The
	// countdown runs before the profile increment, mirroring the interpreter,
	// so hand-offs never double-count a block entry.
	var mt *methodTier
	if m.tier != nil {
		mt = m.tier.stateOf(fn)
	}

	for {
		if m.Abort != nil && m.Abort.Load() {
			return Outcome{}, ErrAborted
		}
		if mt != nil && mt.tier == tierClosure {
			mt.budget--
			if mt.budget <= 0 {
				if fn2, cf2 := m.tier.promoteT2(mt); cf2 != nil {
					fn, cf = fn2, cf2
					if m.Profile != nil {
						prof = m.Profile.Counters(fn)
					}
				}
				if mt.tier != tierClosure {
					mt = nil
				}
				// Otherwise the profile was too thin to speculate and the
				// controller re-armed the countdown; keep counting.
			}
		}
		if prof != nil {
			prof[blkID]++
		}
		cb := &cf.blocks[blkID]
		st := stNext
	stretches:
		for si := range cb.segs {
			sg := &cb.segs[si]
			if m.steps+sg.count > m.MaxSteps {
				// The step limit can fire inside this stretch: finish the
				// block per-instruction accounted.
				st = m.runSteps(fr, fn, cb.steps[sg.from:])
				break
			}
			// Charge the stretch up front and run the bare closures; a
			// raising entry rolls back its unexecuted suffix, restoring
			// exactly the reference's per-instruction accounting.
			m.steps += sg.count
			m.Stats.Instrs += sg.count
			m.Stats.ImplicitSites += sg.implicit
			m.Cycles += sg.cycles
			for i, s := range sg.charged {
				if st = s(fr); st != stNext {
					if st == stRaise || st == stErr {
						sx := &sg.suffix[i]
						m.steps -= sx.count
						m.Stats.Instrs -= sx.count
						m.Stats.ImplicitSites -= sx.imp
						m.Cycles -= sx.cycles
					}
					break stretches
				}
			}
		}

		switch st {
		case stJump:
			blkID = fr.next
		case stReturn:
			return fr.out, nil
		case stRaise:
			p := fr.pending
			fr.pending = nil
			if fr.deoptCf != nil {
				// Trap-triggered deoptimization: the fired guard already
				// demoted the method; this invocation transfers to the
				// conservative artifact before the raise dispatches, so the
				// handler (or the escape to the caller) and everything after
				// run tier-0 semantics.
				fn, cf = fr.deoptFn, fr.deoptCf
				fr.deoptFn, fr.deoptCf = nil, nil
				if m.Profile != nil {
					prof = m.Profile.Counters(fn)
				}
				mt = nil
				cb = &cf.blocks[blkID]
			}
			if cb.handler >= 0 {
				if cb.excVar != ir.NoVar {
					fr.locals[cb.excVar] = p.ref
				}
				blkID = cb.handler
				continue
			}
			return Outcome{Exc: p.kind, ExcRef: p.ref}, nil
		case stErr:
			return Outcome{}, fr.err
		default:
			// The block ran out of instructions without a terminator.
			return Outcome{}, fmt.Errorf("machine: block %s of %s fell through", cb.b, fn.Name)
		}
	}
}

// runSteps executes unfused steps in order until one leaves the straight
// line, applying the reference's per-instruction accounting to each.
func (m *Machine) runSteps(fr *frame, fn *ir.Func, steps []cStep) status {
	for i := range steps {
		s := &steps[i]
		m.steps++
		if m.steps > m.MaxSteps {
			fr.err = m.stepLimitErr(fn)
			return stErr
		}
		m.Stats.Instrs++
		if s.imp {
			m.Stats.ImplicitSites++
		}
		m.Cycles += s.cost
		if st := s.step(fr); st != stNext {
			return st
		}
	}
	return stNext
}

// finishLoad completes a memory read: a direct hit inside the live heap —
// the overwhelmingly common case — bypasses the full trap classification.
// The guard is exactly Classify's AccessOK arm: at or above HeapBase (so
// non-negative), at or above the trap area (HeapBase can, in principle, sit
// inside a huge custom trap area), and within the allocated words.
func (m *Machine) finishLoad(fr *frame, in *ir.Instr, addr int64, d ir.VarID) status {
	if addr >= rt.HeapBase && addr >= m.Arch.TrapAreaBytes &&
		(addr-rt.HeapBase)/ir.WordBytes < int64(m.Heap.LiveWords()) {
		fr.locals[d] = m.Heap.Load(addr)
		return stNext
	}
	v, r, err := m.load(in, addr)
	if err != nil {
		fr.err = err
		return stErr
	}
	if r != nil {
		fr.pending = r
		return stRaise
	}
	fr.locals[d] = v
	return stNext
}

// finishStore completes a memory write; same fast path as finishLoad.
func (m *Machine) finishStore(fr *frame, in *ir.Instr, addr, v int64) status {
	if addr >= rt.HeapBase && addr >= m.Arch.TrapAreaBytes &&
		(addr-rt.HeapBase)/ir.WordBytes < int64(m.Heap.LiveWords()) {
		m.Heap.Store(addr, v)
		return stNext
	}
	r, err := m.storeWord(in, addr, v)
	if err != nil {
		fr.err = err
		return stErr
	}
	if r != nil {
		fr.pending = r
		return stRaise
	}
	return stNext
}

// frameGet pops a pooled frame with n zeroed locals.
func (m *Machine) frameGet(n int) *frame {
	if k := len(m.frames); k > 0 {
		fr := m.frames[k-1]
		m.frames = m.frames[:k-1]
		if cap(fr.locals) < n {
			fr.locals = make([]int64, n)
		} else {
			fr.locals = fr.locals[:n]
			clear(fr.locals)
		}
		fr.out = Outcome{}
		fr.pending = nil
		fr.err = nil
		fr.deoptFn, fr.deoptCf = nil, nil
		return fr
	}
	return &frame{locals: make([]int64, n)}
}

func (m *Machine) framePut(fr *frame) {
	if len(m.frames) <= maxCallDepth {
		m.frames = append(m.frames, fr)
	}
}

// compiled returns fn's closure-compiled form, building it on first use
// into fn's entry in the per-function cache.
func (m *Machine) compiled(fn *ir.Func) *cFunc {
	e := m.prepare(fn)
	if e.cf == nil {
		e.cf = m.compileFunc(fn, e.pf)
	}
	return e.cf
}

// compileFunc closure-compiles fn from its prepared table.
func (m *Machine) compileFunc(fn *ir.Func, pf *pFunc) *cFunc {
	cf := &cFunc{blocks: make([]cBlock, fn.MaxBlockID()+1), entry: fn.Entry.ID}
	for _, b := range fn.Blocks {
		pins := pf.blocks[b.ID]
		cb := cBlock{b: b, handler: -1, excVar: ir.NoVar, steps: make([]cStep, len(pins))}
		if b.Try != ir.NoTry {
			r := fn.Regions[b.Try]
			cb.handler = r.Handler.ID
			cb.excVar = r.ExcVar
		}
		for i := range pins {
			step := m.compileStep(fn, &pins[i])
			if c := pins[i].chk; c != nil && pins[i].in.ExcSite {
				// Governed site counter: mirror the interpreter's per-site
				// Execs increment. Fusion refuses counter-bearing sites, so
				// every execution flows through this wrapper.
				inner := step
				step = func(fr *frame) status {
					c.Execs++
					return inner(fr)
				}
			}
			cb.steps[i] = cStep{step: step, cost: m.Arch.Cost(pins[i].in), imp: pins[i].in.ExcSite}
		}
		cb.segs = m.buildSegs(pins, cb.steps)
		cf.blocks[b.ID] = cb
	}
	return cf
}

// buildSegs splits a block into charged stretches, each ending after a call,
// after a terminator or at the block end, and fuses adjacent pairs within
// each stretch. steps holds the block's unfused closures and accounting.
func (m *Machine) buildSegs(pins []pInstr, steps []cStep) []cSeg {
	var segs []cSeg
	for start := 0; start < len(pins); {
		end := start + 1
		for end < len(pins) && !endsStretch(pins[end-1].in) {
			end++
		}
		sg := cSeg{from: start, count: int64(end - start)}
		// sufAt[i] covers steps[i+1:end], the part of this stretch a raise at
		// steps[i] must roll back.
		sufAt := make([]suf, end-start)
		var acc suf
		for i := end - 1; i >= start; i-- {
			sufAt[i-start] = acc
			acc.count++
			acc.cycles += steps[i].cost
			if steps[i].imp {
				acc.imp++
			}
		}
		sg.cycles, sg.implicit = acc.cycles, acc.imp
		for i := start; i < end; {
			if i+1 < end {
				if s := m.fuseBare(&pins[i], &pins[i+1]); s != nil {
					sg.charged = append(sg.charged, s)
					sg.suffix = append(sg.suffix, sufAt[i+1-start])
					i += 2
					continue
				}
			}
			sg.charged = append(sg.charged, steps[i].step)
			sg.suffix = append(sg.suffix, sufAt[i-start])
			i++
		}
		segs = append(segs, sg)
		start = end
	}
	return segs
}

// endsStretch reports whether a charged stretch must end after in: calls,
// so the callee reads the caller's step count exactly as of the call, and
// terminators, so no pre-charged suffix is left behind.
func endsStretch(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpCallStatic, ir.OpCallVirtual:
		return true
	}
	return in.IsTerminator()
}

// Operand access helpers over the pre-decoded pOp shapes.

func pv(fr *frame, p *pOp) int64 {
	if p.varIdx >= 0 {
		return fr.locals[p.varIdx]
	}
	return p.i64
}

func pfv(fr *frame, p *pOp) float64 {
	if p.varIdx >= 0 {
		return math.Float64frombits(uint64(fr.locals[p.varIdx]))
	}
	return p.f64
}

func intCmpFn(c ir.Cond) func(a, b int64) bool {
	switch c {
	case ir.CondEQ:
		return func(a, b int64) bool { return a == b }
	case ir.CondNE:
		return func(a, b int64) bool { return a != b }
	case ir.CondLT:
		return func(a, b int64) bool { return a < b }
	case ir.CondLE:
		return func(a, b int64) bool { return a <= b }
	case ir.CondGT:
		return func(a, b int64) bool { return a > b }
	case ir.CondGE:
		return func(a, b int64) bool { return a >= b }
	}
	return func(a, b int64) bool { return false }
}

func floatCmpFn(c ir.Cond) func(a, b float64) bool {
	switch c {
	case ir.CondEQ:
		return func(a, b float64) bool { return a == b }
	case ir.CondNE:
		return func(a, b float64) bool { return a != b }
	case ir.CondLT:
		return func(a, b float64) bool { return a < b }
	case ir.CondLE:
		return func(a, b float64) bool { return a <= b }
	case ir.CondGT:
		return func(a, b float64) bool { return a > b }
	case ir.CondGE:
		return func(a, b float64) bool { return a >= b }
	}
	return func(a, b float64) bool { return false }
}

// binI compiles a two-operand integer op across the four operand shapes
// (var/var, var/const, const/var, const/const — the last folds at compile
// time). Hot ops (Move, Add, Sub, If, Cmp) get hand-inlined shapes instead.
func binI(d ir.VarID, a, b pOp, op func(x, y int64) int64) stepFn {
	switch {
	case a.varIdx >= 0 && b.varIdx >= 0:
		ai, bi := a.varIdx, b.varIdx
		return func(fr *frame) status { fr.locals[d] = op(fr.locals[ai], fr.locals[bi]); return stNext }
	case a.varIdx >= 0:
		ai, k := a.varIdx, b.i64
		return func(fr *frame) status { fr.locals[d] = op(fr.locals[ai], k); return stNext }
	case b.varIdx >= 0:
		k, bi := a.i64, b.varIdx
		return func(fr *frame) status { fr.locals[d] = op(k, fr.locals[bi]); return stNext }
	default:
		v := op(a.i64, b.i64)
		return func(fr *frame) status { fr.locals[d] = v; return stNext }
	}
}

func binF(d ir.VarID, a, b pOp, op func(x, y float64) float64) stepFn {
	return func(fr *frame) status { fr.locals[d] = fbits(op(pfv(fr, &a), pfv(fr, &b))); return stNext }
}

func unI(d ir.VarID, a pOp, op func(x int64) int64) stepFn {
	if a.varIdx >= 0 {
		ai := a.varIdx
		return func(fr *frame) status { fr.locals[d] = op(fr.locals[ai]); return stNext }
	}
	v := op(a.i64)
	return func(fr *frame) status { fr.locals[d] = v; return stNext }
}

// compileStep compiles one instruction into its bare step closure: pure
// semantics, no accounting (runSteps or the stretch charge supplies it).
func (m *Machine) compileStep(fn *ir.Func, pin *pInstr) stepFn {
	in := pin.in
	d := in.Dst
	switch in.Op {
	case ir.OpMove:
		a := pin.args[0]
		if a.varIdx >= 0 {
			ai := a.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai]; return stNext }
		}
		// move-const superinstruction: the constant is baked in.
		v := a.i64
		return func(fr *frame) status { fr.locals[d] = v; return stNext }

	case ir.OpAdd:
		a, b := pin.args[0], pin.args[1]
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] + fr.locals[bi]; return stNext }
		case a.varIdx >= 0:
			// add-const superinstruction.
			ai, k := a.varIdx, b.i64
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] + k; return stNext }
		case b.varIdx >= 0:
			k, bi := a.i64, b.varIdx
			return func(fr *frame) status { fr.locals[d] = k + fr.locals[bi]; return stNext }
		default:
			v := a.i64 + b.i64
			return func(fr *frame) status { fr.locals[d] = v; return stNext }
		}
	case ir.OpSub:
		a, b := pin.args[0], pin.args[1]
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] - fr.locals[bi]; return stNext }
		case a.varIdx >= 0:
			ai, k := a.varIdx, b.i64
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] - k; return stNext }
		case b.varIdx >= 0:
			k, bi := a.i64, b.varIdx
			return func(fr *frame) status { fr.locals[d] = k - fr.locals[bi]; return stNext }
		default:
			v := a.i64 - b.i64
			return func(fr *frame) status { fr.locals[d] = v; return stNext }
		}
	case ir.OpMul:
		return binI(d, pin.args[0], pin.args[1], func(x, y int64) int64 { return x * y })
	case ir.OpAnd:
		return binI(d, pin.args[0], pin.args[1], func(x, y int64) int64 { return x & y })
	case ir.OpOr:
		return binI(d, pin.args[0], pin.args[1], func(x, y int64) int64 { return x | y })
	case ir.OpXor:
		return binI(d, pin.args[0], pin.args[1], func(x, y int64) int64 { return x ^ y })
	case ir.OpShl:
		// Shift counts are masked to 6 bits, as in the reference.
		return binI(d, pin.args[0], pin.args[1], func(x, y int64) int64 { return x << (uint64(y) & 63) })
	case ir.OpShr:
		return binI(d, pin.args[0], pin.args[1], func(x, y int64) int64 { return x >> (uint64(y) & 63) })

	case ir.OpDiv, ir.OpRem:
		a, b := pin.args[0], pin.args[1]
		isDiv := in.Op == ir.OpDiv
		if b.varIdx < 0 && b.i64 != 0 {
			k := b.i64
			if isDiv {
				return func(fr *frame) status { fr.locals[d] = pv(fr, &a) / k; return stNext }
			}
			return func(fr *frame) status { fr.locals[d] = pv(fr, &a) % k; return stNext }
		}
		return func(fr *frame) status {
			dv := pv(fr, &b)
			if dv == 0 {
				fr.pending = m.throw(rt.ExcArithmetic)
				return stRaise
			}
			if isDiv {
				fr.locals[d] = pv(fr, &a) / dv
			} else {
				fr.locals[d] = pv(fr, &a) % dv
			}
			return stNext
		}

	case ir.OpNeg:
		return unI(d, pin.args[0], func(x int64) int64 { return -x })
	case ir.OpNot:
		return unI(d, pin.args[0], func(x int64) int64 { return ^x })

	case ir.OpFAdd:
		return binF(d, pin.args[0], pin.args[1], func(x, y float64) float64 { return x + y })
	case ir.OpFSub:
		return binF(d, pin.args[0], pin.args[1], func(x, y float64) float64 { return x - y })
	case ir.OpFMul:
		return binF(d, pin.args[0], pin.args[1], func(x, y float64) float64 { return x * y })
	case ir.OpFDiv:
		return binF(d, pin.args[0], pin.args[1], func(x, y float64) float64 { return x / y })
	case ir.OpFNeg:
		a := pin.args[0]
		return func(fr *frame) status { fr.locals[d] = fbits(-pfv(fr, &a)); return stNext }
	case ir.OpIntToFloat:
		a := pin.args[0]
		if a.varIdx >= 0 {
			ai := a.varIdx
			return func(fr *frame) status { fr.locals[d] = fbits(float64(fr.locals[ai])); return stNext }
		}
		v := fbits(float64(a.i64))
		return func(fr *frame) status { fr.locals[d] = v; return stNext }
	case ir.OpFloatToInt:
		a := pin.args[0]
		return func(fr *frame) status { fr.locals[d] = int64(pfv(fr, &a)); return stNext }

	case ir.OpCmp:
		a, b := pin.args[0], pin.args[1]
		if a.isFloat || b.isFloat {
			cf := floatCmpFn(in.Cond)
			return func(fr *frame) status {
				if cf(pfv(fr, &a), pfv(fr, &b)) {
					fr.locals[d] = 1
				} else {
					fr.locals[d] = 0
				}
				return stNext
			}
		}
		ci := intCmpFn(in.Cond)
		if a.varIdx >= 0 && b.varIdx < 0 {
			ai, k := a.varIdx, b.i64
			return func(fr *frame) status {
				if ci(fr.locals[ai], k) {
					fr.locals[d] = 1
				} else {
					fr.locals[d] = 0
				}
				return stNext
			}
		}
		return func(fr *frame) status {
			if ci(pv(fr, &a), pv(fr, &b)) {
				fr.locals[d] = 1
			} else {
				fr.locals[d] = 0
			}
			return stNext
		}

	case ir.OpMath:
		a := pin.args[0]
		mf := in.Fn
		return func(fr *frame) status { fr.locals[d] = fbits(mathFn(mf, pfv(fr, &a))); return stNext }

	case ir.OpInstanceOf:
		a := pin.args[0]
		cid := int64(in.Class.ID)
		return func(fr *frame) status {
			ref := pv(fr, &a)
			if ref != 0 && m.Heap.ClassIDOf(ref) == cid {
				fr.locals[d] = 1
			} else {
				fr.locals[d] = 0
			}
			return stNext
		}

	case ir.OpNullCheck:
		a := pin.args[0]
		if in.SpecGuard != 0 {
			// Tier-2 speculation guard: zero static cost, no explicit-check
			// accounting. A null fires it as a hardware trap — the same NPE
			// at the same program point the explicit check would have
			// raised — and triggers deoptimization.
			return func(fr *frame) status {
				if pv(fr, &a) != 0 {
					return stNext
				}
				fr.pending = m.trap()
				if m.tier != nil {
					m.tier.deopted(fn, in, fr)
				}
				return stRaise
			}
		}
		if chk := pin.chk; chk != nil {
			return func(fr *frame) status {
				m.Stats.ExplicitChecks++
				chk.Execs++
				if pv(fr, &a) == 0 {
					chk.Nulls++
					m.Stats.ThrownSoftware++
					fr.pending = m.throw(rt.ExcNullPointer)
					return stRaise
				}
				return stNext
			}
		}
		return func(fr *frame) status {
			m.Stats.ExplicitChecks++
			if pv(fr, &a) == 0 {
				m.Stats.ThrownSoftware++
				fr.pending = m.throw(rt.ExcNullPointer)
				return stRaise
			}
			return stNext
		}

	case ir.OpNew:
		cl := in.Class
		return func(fr *frame) status { fr.locals[d] = m.Heap.AllocObject(cl); return stNext }
	case ir.OpNewArray:
		a := pin.args[0]
		return func(fr *frame) status {
			n := pv(fr, &a)
			if n < 0 {
				fr.pending = m.throw(rt.ExcNegativeArraySize)
				return stRaise
			}
			m.Cycles += m.Arch.AllocPerWordCycles * n
			fr.locals[d] = m.Heap.AllocArray(n)
			return stNext
		}

	case ir.OpGetField:
		a := pin.args[0]
		off := int64(in.Field.Offset)
		if a.varIdx >= 0 {
			ai := a.varIdx
			return func(fr *frame) status {
				m.Stats.Loads++
				return m.finishLoad(fr, in, fr.locals[ai]+off, d)
			}
		}
		addr := a.i64 + off
		return func(fr *frame) status {
			m.Stats.Loads++
			return m.finishLoad(fr, in, addr, d)
		}
	case ir.OpPutField:
		a, b := pin.args[0], pin.args[1]
		off := int64(in.Field.Offset)
		if a.varIdx >= 0 && b.varIdx >= 0 {
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status {
				m.Stats.Stores++
				return m.finishStore(fr, in, fr.locals[ai]+off, fr.locals[bi])
			}
		}
		if a.varIdx >= 0 {
			ai, v := a.varIdx, b.i64
			return func(fr *frame) status {
				m.Stats.Stores++
				return m.finishStore(fr, in, fr.locals[ai]+off, v)
			}
		}
		return func(fr *frame) status {
			m.Stats.Stores++
			return m.finishStore(fr, in, pv(fr, &a)+off, pv(fr, &b))
		}
	case ir.OpArrayLength:
		a := pin.args[0]
		if a.varIdx >= 0 {
			ai := a.varIdx
			return func(fr *frame) status {
				m.Stats.Loads++
				return m.finishLoad(fr, in, fr.locals[ai], d)
			}
		}
		addr := a.i64
		return func(fr *frame) status {
			m.Stats.Loads++
			return m.finishLoad(fr, in, addr, d)
		}
	case ir.OpBoundCheck:
		a, b := pin.args[0], pin.args[1]
		return func(fr *frame) status {
			m.Stats.BoundChecks++
			idx, n := pv(fr, &a), pv(fr, &b)
			if idx < 0 || idx >= n {
				m.Stats.ThrownSoftware++
				fr.pending = m.throw(rt.ExcArrayIndexOutOfBounds)
				return stRaise
			}
			return stNext
		}
	case ir.OpArrayLoad:
		a, b := pin.args[0], pin.args[1]
		if a.varIdx >= 0 && b.varIdx >= 0 {
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status {
				m.Stats.Loads++
				return m.finishLoad(fr, in,
					fr.locals[ai]+ir.ArrayHeaderBytes+fr.locals[bi]*ir.WordBytes, d)
			}
		}
		if a.varIdx >= 0 {
			ai, off := a.varIdx, ir.ArrayHeaderBytes+b.i64*ir.WordBytes
			return func(fr *frame) status {
				m.Stats.Loads++
				return m.finishLoad(fr, in, fr.locals[ai]+off, d)
			}
		}
		return func(fr *frame) status {
			m.Stats.Loads++
			return m.finishLoad(fr, in,
				pv(fr, &a)+ir.ArrayHeaderBytes+pv(fr, &b)*ir.WordBytes, d)
		}
	case ir.OpArrayStore:
		a, b, c := pin.args[0], pin.args[1], pin.args[2]
		if a.varIdx >= 0 && b.varIdx >= 0 && c.varIdx >= 0 {
			ai, bi, ci := a.varIdx, b.varIdx, c.varIdx
			return func(fr *frame) status {
				m.Stats.Stores++
				return m.finishStore(fr, in,
					fr.locals[ai]+ir.ArrayHeaderBytes+fr.locals[bi]*ir.WordBytes, fr.locals[ci])
			}
		}
		if a.varIdx >= 0 && b.varIdx >= 0 {
			ai, bi, v := a.varIdx, b.varIdx, c.i64
			return func(fr *frame) status {
				m.Stats.Stores++
				return m.finishStore(fr, in,
					fr.locals[ai]+ir.ArrayHeaderBytes+fr.locals[bi]*ir.WordBytes, v)
			}
		}
		if a.varIdx >= 0 {
			ai, off := a.varIdx, ir.ArrayHeaderBytes+b.i64*ir.WordBytes
			return func(fr *frame) status {
				m.Stats.Stores++
				return m.finishStore(fr, in, fr.locals[ai]+off, pv(fr, &c))
			}
		}
		return func(fr *frame) status {
			m.Stats.Stores++
			return m.finishStore(fr, in,
				pv(fr, &a)+ir.ArrayHeaderBytes+pv(fr, &b)*ir.WordBytes, pv(fr, &c))
		}

	case ir.OpCallStatic, ir.OpCallVirtual:
		return m.compileCall(pin)

	case ir.OpJump:
		t := in.Targets[0].ID
		return func(fr *frame) status { fr.next = t; return stJump }
	case ir.OpIf:
		return compileIf(pin)
	case ir.OpReturn:
		if len(pin.args) == 1 {
			a := pin.args[0]
			if a.varIdx >= 0 {
				ai := a.varIdx
				return func(fr *frame) status { fr.out = Outcome{Value: fr.locals[ai]}; return stReturn }
			}
			v := a.i64
			return func(fr *frame) status { fr.out = Outcome{Value: v}; return stReturn }
		}
		return func(fr *frame) status { fr.out = Outcome{}; return stReturn }
	case ir.OpThrow:
		a := pin.args[0]
		return func(fr *frame) status {
			ref := pv(fr, &a)
			m.Stats.ThrownSoftware++
			fr.pending = &raise{kind: m.Heap.ExcKindOf(ref), ref: ref}
			return stRaise
		}
	}

	op := in.Op
	return func(fr *frame) status {
		fr.err = fmt.Errorf("machine: cannot execute %s", op)
		return stErr
	}
}

// compileIf compiles a conditional branch, specializing the hot integer
// var/const and var/var shapes.
func compileIf(pin *pInstr) stepFn {
	in := pin.in
	t0, t1 := in.Targets[0].ID, in.Targets[1].ID
	a, b := pin.args[0], pin.args[1]
	if a.isFloat || b.isFloat {
		cf := floatCmpFn(in.Cond)
		return func(fr *frame) status {
			if cf(pfv(fr, &a), pfv(fr, &b)) {
				fr.next = t0
			} else {
				fr.next = t1
			}
			return stJump
		}
	}
	ci := intCmpFn(in.Cond)
	switch {
	case a.varIdx >= 0 && b.varIdx < 0:
		ai, k := a.varIdx, b.i64
		return func(fr *frame) status {
			if ci(fr.locals[ai], k) {
				fr.next = t0
			} else {
				fr.next = t1
			}
			return stJump
		}
	case a.varIdx >= 0 && b.varIdx >= 0:
		ai, bi := a.varIdx, b.varIdx
		return func(fr *frame) status {
			if ci(fr.locals[ai], fr.locals[bi]) {
				fr.next = t0
			} else {
				fr.next = t1
			}
			return stJump
		}
	}
	return func(fr *frame) status {
		if ci(pv(fr, &a), pv(fr, &b)) {
			fr.next = t0
		} else {
			fr.next = t1
		}
		return stJump
	}
}

// compileCall compiles OpCallStatic/OpCallVirtual. Callee.Fn is read at run
// time, not captured: triage's bisection replays swap Method.Fn between
// Calls and the machine must follow the swap, exactly as the reference
// engine resolves every call through Callee.Fn dynamically.
func (m *Machine) compileCall(pin *pInstr) stepFn {
	in := pin.in
	cal := in.Callee
	virtual := in.Op == ir.OpCallVirtual
	hasDst := in.HasDst()
	d := in.Dst
	args := append([]pOp(nil), pin.args...)
	// scratch is recursion-safe: execCf copies it into the callee frame
	// before the callee body (and thus any reentry of this closure) runs.
	scratch := make([]int64, len(args))
	// Per-call-site compilation cache: valid as long as the target Func is
	// unchanged. A stale-but-matching entry after ResetPrepared is harmless —
	// recompiling the same Func yields observationally identical closures.
	var ccFn *ir.Func
	var ccCf *cFunc
	return func(fr *frame) status {
		m.Stats.Calls++
		if virtual {
			// Dispatch reads the header slot: the trap point.
			m.Stats.Loads++
			_, r, err := m.load(in, pv(fr, &args[0]))
			if err != nil {
				fr.err = err
				return stErr
			}
			if r != nil {
				fr.pending = r
				return stRaise
			}
		}
		callee := cal.Fn
		if callee == nil {
			if cal.Intrinsic != ir.MathNone {
				m.Cycles += m.Arch.MathCycles
				if len(args) == 0 {
					fr.err = fmt.Errorf("machine: intrinsic %s without args", cal.QualifiedName())
					return stErr
				}
				v := fbits(mathFn(cal.Intrinsic, pfv(fr, &args[len(args)-1])))
				if hasDst {
					fr.locals[d] = v
				}
				return stNext
			}
			fr.err = fmt.Errorf("machine: call to bodyless method %s", cal.QualifiedName())
			return stErr
		}
		for i := range args {
			scratch[i] = pv(fr, &args[i])
		}
		var out Outcome
		var err error
		if m.tier != nil {
			// Tiered dispatch: the callee runs whatever artifact its own
			// tier currently selects.
			out, err = m.tierInvoke(callee, scratch, fr.depth+1)
		} else {
			if callee != ccFn {
				ccCf = m.compiled(callee)
				ccFn = callee
			}
			out, err = m.execCf(callee, ccCf, scratch, fr.depth+1)
		}
		if err != nil {
			fr.err = err
			return stErr
		}
		if out.Exc != rt.ExcNone {
			fr.pending = &raise{kind: out.Exc, ref: out.ExcRef}
			return stRaise
		}
		if hasDst {
			fr.locals[d] = out.Value
		}
		return stNext
	}
}

// Superinstruction fusion.

// fuseableCmpIf reports whether p;q is an integer cmp feeding an integer
// if-vs-const on the cmp's destination — the canonical compare-and-branch
// pair. Float shapes are excluded: the reference would compare the 0/1
// result as float bits if the destination local were float-kinded.
func fuseableCmpIf(p, q *pInstr) bool {
	if p.in.Op != ir.OpCmp || q.in.Op != ir.OpIf {
		return false
	}
	if p.args[0].isFloat || p.args[1].isFloat {
		return false
	}
	fa0, fa1 := &q.args[0], &q.args[1]
	if fa0.isFloat || fa1.isFloat {
		return false
	}
	return fa0.varIdx >= 0 && ir.VarID(fa0.varIdx) == p.in.Dst && fa1.varIdx < 0
}

// fuseBare tries to fuse p;q into a superinstruction, the one
// implementation of every fusion rule; fused steps only run inside charged
// stretches (the step-limit fallback runs the halves unfused).
// A fused step whose FIRST half exits the block early must itself un-charge
// its unexecuted second half (the runner's suffix for the pair only covers
// what follows the pair); uncharge() does that.
func (m *Machine) fuseBare(p, q *pInstr) stepFn {
	if fuseableCmpIf(p, q) {
		return m.bareCmpIf(p, q)
	}
	// Governed site counters never fuse: the per-site Execs increment lives
	// in the wrapped bare closure (see compileFunc), which fusion would bypass.
	if q.chk != nil && q.in.ExcSite {
		return nil
	}
	// Speculation guards never fuse: the guard traps instead of throwing and
	// must not count as an explicit check, which the fused shapes do.
	if p.in.Op == ir.OpNullCheck && p.in.SpecGuard == 0 && p.args[0].varIdx >= 0 {
		switch q.in.Op {
		case ir.OpGetField, ir.OpPutField, ir.OpArrayLength:
			if q.args[0].varIdx == p.args[0].varIdx {
				return m.bareNullDeref(p, q)
			}
		}
	}
	if p.in.Op == ir.OpBoundCheck && p.args[0].varIdx >= 0 && p.args[1].varIdx >= 0 {
		switch q.in.Op {
		case ir.OpArrayLoad, ir.OpArrayStore:
			if q.args[0].varIdx >= 0 && q.args[1].varIdx == p.args[0].varIdx {
				return m.bareBoundArray(p, q)
			}
		}
	}
	return nil
}

// uncharge rolls one pre-charged instruction back out of the accounting —
// the second half of a fused pair whose first half exited the block.
func (m *Machine) uncharge(cost int64, imp bool) {
	m.steps--
	m.Stats.Instrs--
	if imp {
		m.Stats.ImplicitSites--
	}
	m.Cycles -= cost
}

// bareNullDeref fuses an explicit null check with the dereference it guards
// (same base variable): one closure, one null test, and the base local read
// once.
func (m *Machine) bareNullDeref(p, q *pInstr) stepFn {
	ai := p.args[0].varIdx
	chk := p.chk
	in := q.in
	costD, impD := m.Arch.Cost(in), in.ExcSite

	// countCheck mirrors the unfused check's accounting, including the
	// per-check profile counters the tier controller speculates from.
	countCheck := func(ref int64) {
		m.Stats.ExplicitChecks++
		if chk != nil {
			chk.Execs++
			if ref == 0 {
				chk.Nulls++
			}
		}
	}

	switch in.Op {
	case ir.OpGetField:
		off := int64(in.Field.Offset)
		d := in.Dst
		return func(fr *frame) status {
			ref := fr.locals[ai]
			countCheck(ref)
			if ref == 0 {
				m.Stats.ThrownSoftware++
				fr.pending = m.throw(rt.ExcNullPointer)
				m.uncharge(costD, impD)
				return stRaise
			}
			m.Stats.Loads++
			return m.finishLoad(fr, in, ref+off, d)
		}
	case ir.OpPutField:
		off := int64(in.Field.Offset)
		b := q.args[1]
		return func(fr *frame) status {
			ref := fr.locals[ai]
			countCheck(ref)
			if ref == 0 {
				m.Stats.ThrownSoftware++
				fr.pending = m.throw(rt.ExcNullPointer)
				m.uncharge(costD, impD)
				return stRaise
			}
			m.Stats.Stores++
			return m.finishStore(fr, in, ref+off, pv(fr, &b))
		}
	default: // ir.OpArrayLength
		d := in.Dst
		return func(fr *frame) status {
			ref := fr.locals[ai]
			countCheck(ref)
			if ref == 0 {
				m.Stats.ThrownSoftware++
				fr.pending = m.throw(rt.ExcNullPointer)
				m.uncharge(costD, impD)
				return stRaise
			}
			m.Stats.Loads++
			return m.finishLoad(fr, in, ref, d)
		}
	}
}

// bareBoundArray fuses a bound check with the array access it guards (the
// access indexes by the checked variable): the index local is read once and
// the bound test feeds straight into the address computation.
func (m *Machine) bareBoundArray(p, q *pInstr) stepFn {
	ii, ni := p.args[0].varIdx, p.args[1].varIdx
	bi := q.args[0].varIdx
	in := q.in
	costD, impD := m.Arch.Cost(in), in.ExcSite

	if in.Op == ir.OpArrayLoad {
		d := in.Dst
		return func(fr *frame) status {
			m.Stats.BoundChecks++
			idx := fr.locals[ii]
			if idx < 0 || idx >= fr.locals[ni] {
				m.Stats.ThrownSoftware++
				fr.pending = m.throw(rt.ExcArrayIndexOutOfBounds)
				m.uncharge(costD, impD)
				return stRaise
			}
			m.Stats.Loads++
			return m.finishLoad(fr, in,
				fr.locals[bi]+ir.ArrayHeaderBytes+idx*ir.WordBytes, d)
		}
	}
	c := q.args[2]
	return func(fr *frame) status {
		m.Stats.BoundChecks++
		idx := fr.locals[ii]
		if idx < 0 || idx >= fr.locals[ni] {
			m.Stats.ThrownSoftware++
			fr.pending = m.throw(rt.ExcArrayIndexOutOfBounds)
			m.uncharge(costD, impD)
			return stRaise
		}
		m.Stats.Stores++
		return m.finishStore(fr, in,
			fr.locals[bi]+ir.ArrayHeaderBytes+idx*ir.WordBytes, pv(fr, &c))
	}
}

// bareCmpIf builds the cmp→if superinstruction.
// The cmp's destination is still written: later blocks may read it.
func (m *Machine) bareCmpIf(p, q *pInstr) stepFn {
	ccmp := intCmpFn(p.in.Cond)
	icmp := intCmpFn(q.in.Cond)
	d := p.in.Dst
	a, b := p.args[0], p.args[1]
	k := q.args[1].i64
	t0, t1 := q.in.Targets[0].ID, q.in.Targets[1].ID
	return func(fr *frame) status {
		var v int64
		if ccmp(pv(fr, &a), pv(fr, &b)) {
			v = 1
		}
		fr.locals[d] = v
		if icmp(v, k) {
			fr.next = t0
		} else {
			fr.next = t1
		}
		return stJump
	}
}
