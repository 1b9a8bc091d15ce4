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
// specialized on opcode and operand shape; hot adjacent instructions are
// fused into superinstructions; a block's jump, integer if or return (with
// the instruction before it folded in, when foldable) is evaluated by the
// block loop itself, with no closure call; and every block runs as charged
// stretches: one steps/Instrs/Cycles update per stretch, with the
// unexecuted suffix rolled back on the rare early exit (raise or
// simulation error).
//
// The engine is required to be observationally identical to the reference
// switch interpreter in machine.go: same Outcome, same ExecStats, same
// Cycles, same errors. The accounting order per instruction is fixed by the
// reference — steps++ and the limit check first (a step over the limit is
// counted by `steps` but never reaches Instrs), then Instrs++, then the
// ImplicitSites bump for ExcSite instructions, then the static cycle cost,
// then the semantics. A stretch ends after every call and at the block end
// (a compiled block ends at its first terminator), so whatever runs after a
// stretch entry (a callee, the next block) sees exactly the reference's
// accounting. A stretch the step limit could fire in is not run here: the
// reference interpreter takes over the invocation at that stretch's first
// instruction (interp) and applies the order one instruction at a time.
// Differential tests pin it.
//
// Closures capture the Machine and its Arch's costs, so a Machine's Arch
// must not be swapped after the first Call (nothing in the repository does).

// status is the control-flow result of one step closure.
type status uint8

const (
	stNext  status = iota // fall through to the next instruction
	stJump                // transfer to block frame.next
	stRaise               // exception in frame.pending; dispatch to handler
	stErr                 // simulation error in frame.err
)

// frame is the per-call activation record. Frames are pooled on the Machine.
type frame struct {
	locals  []int64
	pending *raise
	err     error
	next    int // target block ID set by stJump steps
	depth   int
	link    *frame // the next frame in the machine's pool
}

// stepFn executes one instruction (or one fused superinstruction).
type stepFn func(fr *frame) status

// cBlock is one compiled block: a sequence of charged stretches and an
// inline terminator. The first stretch is held in the block itself, so a
// block without calls — the common case — is one charged run with no
// pointer to follow. Each stretch ends after a call (a callee's step
// counting must observe the caller's steps exactly as of the call, never a
// pre-charged suffix) or at the block end. The compiled block ends at the
// block's first terminator: nothing after it can run in either engine.
type cBlock struct {
	seg     cSeg   // the first stretch
	more    []cSeg // the stretches after each call
	term    cTerm
	handler int      // handler block ID, or -1 outside any try region
	excVar  ir.VarID // handler's exception variable (NoVar when none)
	b       *ir.Block
}

// cSeg is one charged stretch: count/cycles/implicit are paid up front and
// an entry that exits early via raise or error rolls back its unexecuted
// suffix. The last stretch's count also covers the block's inline
// terminator and its folded pre-op, which have no charged entry.
type cSeg struct {
	charged  []stepFn
	count    int64
	cycles   int64
	implicit int64
	suffix   []suf // per charged entry: accounting of the entries after it
	from     int   // index of this stretch's first instruction in the block
}

// suf is the accounting a charged stretch pre-paid for the instructions
// after one charged entry — the amount to roll back when that entry exits
// the block early via raise or simulation error.
type suf struct {
	count  int64
	cycles int64
	imp    int64
}

// termKind is how the block loop ends a block without a closure call.
type termKind uint8

const (
	termClosure  termKind = iota // a step closure ends the block (or nothing does)
	termJump                     // go to t0
	termIfVK                     // locals[a] cond k ? t0 : t1
	termIfVV                     // locals[a] cond locals[b] ? t0 : t1
	termRetVar                   // return locals[a]
	termRetConst                 // return k
	termRetVoid                  // return no value
)

// preKind is the integer instruction folded into an inline terminator: the
// one before it, run by the block loop right before the terminator when the
// block's last stretch ran charged.
type preKind uint8

const (
	preNone  preKind = iota
	preAddVK         // locals[pd] = locals[px] + pk
	preMovK          // locals[pd] = pk
	preMovV          // locals[pd] = locals[px]
)

// cTerm is a block's terminator decoded for inline evaluation: jump,
// integer if (var/const or var/var) and return. throw, float compares and
// const-first shapes stay step closures (kind termClosure).
type cTerm struct {
	kind   termKind
	pre    preKind
	cond   condMask // the if's condition
	a, b   int32
	pd, px int32
	t0, t1 int
	k, pk  int64
}

// cFunc is one function compiled for the closure engine, dense by block ID.
type cFunc struct {
	blocks []cBlock
	entry  int
}

// execCf runs an already-compiled function.
func (m *Machine) execCf(fn *ir.Func, cf *cFunc, args []int64, depth int) (Outcome, error) {
	if depth > maxCallDepth {
		return Outcome{}, fmt.Errorf("machine: call depth exceeded in %s", fn.Name)
	}
	fr := m.frameGet(fn.NumLocals())
	defer m.framePut(fr)
	copy(fr.locals, args)
	fr.depth = depth
	m.closureRuns++
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
	m.closureRuns++
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
	// untiered, one decrement-and-test while counting toward tier 2. The
	// countdown runs before the profile increment, mirroring the interpreter,
	// so hand-offs never double-count a block entry.
	var mt *methodTier
	if m.tier != nil {
		mt = m.tier.stateOf(fn)
	}
	// hooks gates the per-block abort poll, tier countdown and profile
	// count behind one test; it is recomputed whenever mt or prof changes.
	hooks := m.Abort != nil || mt != nil || prof != nil

	for {
		if hooks {
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
					// Otherwise the profile was too thin to speculate and
					// the controller re-armed the countdown; keep counting.
					hooks = m.Abort != nil || mt != nil || prof != nil
				}
			}
			if prof != nil {
				prof[blkID]++
			}
		}
		cb := &cf.blocks[blkID]
		st := stNext
		sg := &cb.seg
		for si := 0; ; si++ {
			if m.steps+sg.count > m.MaxSteps {
				// The step limit can fire inside this stretch, so the budget
				// left is smaller than it: the reference interpreter runs
				// the rest of the invocation from the stretch's first
				// instruction, accounting each instruction.
				return m.interp(fn, m.prepare(fn), fr.locals, cb.b, sg.from, fr.depth)
			}
			// Charge the stretch up front and run the bare closures; a
			// raising entry rolls back its unexecuted suffix, restoring
			// exactly the reference's per-instruction accounting.
			m.steps += sg.count
			m.Stats.Instrs += sg.count
			m.Stats.ImplicitSites += sg.implicit
			m.Cycles += sg.cycles
			// Many stretches hold only an inline terminator and its
			// pre-op: they make no call at all.
			if len(sg.charged) > 0 {
				var i int
				if st, i = runCharged(fr, sg.charged); st != stNext {
					if st == stRaise || st == stErr {
						sx := &sg.suffix[i]
						m.steps -= sx.count
						m.Stats.Instrs -= sx.count
						m.Stats.ImplicitSites -= sx.imp
						m.Cycles -= sx.cycles
					}
					break
				}
			}
			if si == len(cb.more) {
				break
			}
			sg = &cb.more[si]
		}

		t := &cb.term
		switch st {
		case stNext:
			// Every charged closure fell through: the folded pre-op and the
			// inline terminator were charged with the last stretch.
			switch t.pre {
			case preAddVK:
				fr.locals[t.pd] = fr.locals[t.px] + t.pk
			case preMovK:
				fr.locals[t.pd] = t.pk
			case preMovV:
				fr.locals[t.pd] = fr.locals[t.px]
			}
			switch t.kind {
			case termJump:
				blkID = t.t0
			case termIfVK:
				if t.cond.holds(fr.locals[t.a], t.k) {
					blkID = t.t0
				} else {
					blkID = t.t1
				}
			case termIfVV:
				if t.cond.holds(fr.locals[t.a], fr.locals[t.b]) {
					blkID = t.t0
				} else {
					blkID = t.t1
				}
			case termRetVar:
				return Outcome{Value: fr.locals[t.a]}, nil
			case termRetConst:
				return Outcome{Value: t.k}, nil
			case termRetVoid:
				return Outcome{}, nil
			default:
				// The block ran out of instructions without a terminator.
				return Outcome{}, fmt.Errorf("machine: block %s of %s fell through", cb.b, fn.Name)
			}
		case stJump:
			blkID = fr.next
		case stRaise:
			p := fr.pending
			fr.pending = nil
			// Adaptive decisions the raise triggered (a fired speculation
			// guard, a governed trap) run here, after the rollback, so they
			// see the reference's step count.
			if fn0 := m.tier.settle(fn); fn0 != nil {
				// Trap-triggered deoptimization: the fired guard demoted the
				// method; this invocation transfers to the conservative
				// artifact (block-for-block aligned with fn) before the raise
				// dispatches, so the handler (or the escape to the caller)
				// and everything after run tier-0 semantics.
				fn, cf = fn0, m.compiled(fn0)
				if m.Profile != nil {
					prof = m.Profile.Counters(fn)
				}
				mt = nil
				hooks = m.Abort != nil || prof != nil
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
		default: // stErr
			return Outcome{}, fr.err
		}
	}
}

// runCharged calls a stretch's closures in order until one leaves the
// straight line and returns its status and index. It is a function of its
// own so that only its few locals, not all of runCf's, are saved and
// restored around each closure call.
//
//go:noinline
func runCharged(fr *frame, charged []stepFn) (status, int) {
	for i, s := range charged {
		if st := s(fr); st != stNext {
			return st, i
		}
	}
	return stNext, len(charged)
}

// finishLoad completes a memory read: a direct hit inside the live heap —
// the overwhelmingly common case — bypasses the full trap classification.
// The guard is exactly Classify's AccessOK arm: at or above heapLo (HeapBase,
// or the trap area's end when a huge custom trap area covers HeapBase) and
// within the allocated words.
func (m *Machine) finishLoad(fr *frame, in *ir.Instr, addr int64, d ir.VarID) status {
	if v, ok := m.Heap.TryLoad(addr, m.heapLo); ok {
		fr.locals[d] = v
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
	if m.Heap.TryStore(addr, m.heapLo, v) {
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
	if fr := m.frames; fr != nil {
		m.frames = fr.link
		if cap(fr.locals) < n {
			fr.locals = make([]int64, n)
		} else {
			fr.locals = fr.locals[:n]
			clear(fr.locals)
		}
		fr.pending = nil
		fr.err = nil
		return fr
	}
	return &frame{locals: make([]int64, n)}
}

// framePut pushes fr back on the pool. Every frame put was got first, so
// the pool never holds more frames than were live at once.
func (m *Machine) framePut(fr *frame) {
	fr.link = m.frames
	m.frames = fr
}

// compiled returns fn's closure-compiled form, building it on first use
// into fn's entry in the per-function table and disarming fn's hot
// countdown: there is no code left to turn hot into.
func (m *Machine) compiled(fn *ir.Func) *cFunc {
	e := m.prepare(fn)
	if e.cf == nil {
		e.cf = m.compileFunc(fn, e.pf)
		e.countdown = 0
	}
	return e.cf
}

// compileFunc closure-compiles fn from its prepared table.
func (m *Machine) compileFunc(fn *ir.Func, pf *pFunc) *cFunc {
	// Arch is fixed once a Machine runs (see the file comment), so the heap
	// fast path's lower bound is too.
	m.heapLo = max(rt.HeapBase, m.Arch.TrapAreaBytes)
	cf := &cFunc{blocks: make([]cBlock, fn.MaxBlockID()+1), entry: fn.Entry.ID}
	for _, b := range fn.Blocks {
		pins := pf.block(b.ID)
		// Nothing after a block's first terminator runs in either engine.
		for i := range pins {
			if pins[i].in.IsTerminator() {
				pins = pins[:i+1]
				break
			}
		}
		cb := cBlock{b: b, handler: -1, excVar: ir.NoVar}
		if b.Try != ir.NoTry {
			r := fn.Regions[b.Try]
			cb.handler = r.Handler.ID
			cb.excVar = r.ExcVar
		}
		// tail counts the trailing instructions the block loop runs inline:
		// the terminator and, when foldable, the instruction before it.
		tail := 0
		if n := len(pins); n > 0 && decodeTerm(&cb.term, &pins[n-1], pf.args(&pins[n-1])) {
			tail = 1
			if n > 1 && decodePre(&cb.term, &pins[n-2], pf.args(&pins[n-2])) {
				tail = 2
			}
		}
		if segs := m.buildSegs(pf, pins, tail); len(segs) > 0 {
			cb.seg, cb.more = segs[0], segs[1:]
		}
		cf.blocks[b.ID] = cb
	}
	return cf
}

// siteCounted reports whether pin carries a governed or attribution site
// counter, whose Execs increment lives in its wrapped closure (see
// compileCharged): such an instruction never fuses or runs inline.
func siteCounted(pin *pInstr) bool { return pin.chk != nil && pin.in.ExcSite }

// decodeTerm decodes pin, whose operands are args, into t when the block
// loop can evaluate it inline.
func decodeTerm(t *cTerm, pin *pInstr, args []pOp) bool {
	in := pin.in
	if siteCounted(pin) {
		return false
	}
	switch in.Op {
	case ir.OpJump:
		t.kind, t.t0 = termJump, in.Targets[0].ID
	case ir.OpReturn:
		switch {
		case len(args) != 1:
			t.kind = termRetVoid
		case args[0].varIdx >= 0:
			t.kind, t.a = termRetVar, args[0].varIdx
		default:
			t.kind, t.k = termRetConst, args[0].i64
		}
	case ir.OpIf:
		a, b := args[0], args[1]
		if a.isFloat || b.isFloat || a.varIdx < 0 {
			return false
		}
		t.cond, t.a, t.t0, t.t1 = maskOf(in.Cond), a.varIdx, in.Targets[0].ID, in.Targets[1].ID
		if b.varIdx >= 0 {
			t.kind, t.b = termIfVV, b.varIdx
		} else {
			t.kind, t.k = termIfVK, b.i64
		}
	default:
		return false
	}
	return true
}

// decodePre folds pin, the instruction before an inline terminator, into t
// when it is one of the integer pre-op shapes; args are its operands.
func decodePre(t *cTerm, pin *pInstr, args []pOp) bool {
	in := pin.in
	if siteCounted(pin) {
		return false
	}
	switch in.Op {
	case ir.OpMove:
		if a := args[0]; a.varIdx >= 0 {
			t.pre, t.px = preMovV, a.varIdx
		} else {
			t.pre, t.pk = preMovK, a.i64
		}
	case ir.OpAdd:
		a, b := args[0], args[1]
		if a.varIdx < 0 || b.varIdx >= 0 {
			return false
		}
		t.pre, t.px, t.pk = preAddVK, a.varIdx, b.i64
	default:
		return false
	}
	t.pd = int32(in.Dst)
	return true
}

// buildSegs splits a block of pf into charged stretches, each ending after
// a call or at the block end, and fuses adjacent pairs within each stretch.
// The block's last tail instructions run inline in the block loop and get
// no charged entry.
func (m *Machine) buildSegs(pf *pFunc, pins []pInstr, tail int) []cSeg {
	var segs []cSeg
	for start := 0; start < len(pins); {
		end := start + 1
		for end < len(pins) && !isCall(pins[end-1].in) {
			end++
		}
		sg := cSeg{from: start, count: int64(end - start)}
		// sufAt[i] covers pins[i+1:end], the part of this stretch a raise at
		// pins[i] must roll back.
		sufAt := make([]suf, end-start)
		var acc suf
		for i := end - 1; i >= start; i-- {
			sufAt[i-start] = acc
			acc.count++
			acc.cycles += int64(pins[i].cost)
			if pins[i].in.ExcSite {
				acc.imp++
			}
		}
		sg.cycles, sg.implicit = acc.cycles, acc.imp
		last := end
		if end == len(pins) {
			last -= tail
		}
		for i := start; i < last; {
			if s, w := m.fuse(pf, pins[i:last]); w > 0 {
				sg.charged = append(sg.charged, s)
				sg.suffix = append(sg.suffix, sufAt[i+w-1-start])
				i += w
				continue
			}
			sg.charged = append(sg.charged, m.compileCharged(&pins[i], pf.args(&pins[i])))
			sg.suffix = append(sg.suffix, sufAt[i-start])
			i++
		}
		segs = append(segs, sg)
		start = end
	}
	return segs
}

// compileCharged compiles one unfused charged entry. A governed or
// attribution site counter is bumped by a wrapper, mirroring the
// interpreter's per-site Execs increment: fusion and the inline terminator
// refuse counter-bearing sites, so every execution flows through it. args
// are pin's operands.
func (m *Machine) compileCharged(pin *pInstr, args []pOp) stepFn {
	step := m.compileStep(pin, args)
	if !siteCounted(pin) {
		return step
	}
	c := pin.chk
	return func(fr *frame) status {
		c.Execs++
		return step(fr)
	}
}

// isCall reports whether in is a call, after which a charged stretch ends
// so the callee reads the caller's step count exactly as of the call.
func isCall(in *ir.Instr) bool {
	return in.Op == ir.OpCallStatic || in.Op == ir.OpCallVirtual
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
	return constFloat(p)
}

// fl reads local i as a float.
func fl(fr *frame, i int32) float64 { return math.Float64frombits(uint64(fr.locals[i])) }

// condMask is an integer Cond as the set of orderings under which it holds:
// bit 0 for a < b, bit 1 for a == b, bit 2 for a > b. Testing it takes no
// branch on the condition, which matters at the block loop's inline if: one
// site serves every condition, so a switch on the condition there would
// mispredict as the conditions vary.
type condMask uint8

// maskOf returns c's ordering set.
func maskOf(c ir.Cond) condMask {
	switch c {
	case ir.CondEQ:
		return 0b010
	case ir.CondNE:
		return 0b101
	case ir.CondLT:
		return 0b001
	case ir.CondLE:
		return 0b011
	case ir.CondGT:
		return 0b100
	case ir.CondGE:
		return 0b110
	}
	return 0
}

// holds reports whether a and b are in one of k's orderings.
func (k condMask) holds(a, b int64) bool {
	return k>>uint8(b2i(a >= b)+b2i(a > b))&1 != 0
}

// b2i is the 0/1 word a compare writes (a SETcc, not a branch).
func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
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

// binI compiles the const-first shapes of a two-operand integer op
// (const/var, and const/const, which folds at compile time). compileStep
// hand-writes the var/var and var/const shapes of every integer op, so the
// hot shapes make no call through op.
func binI(d ir.VarID, a, b pOp, op func(x, y int64) int64) stepFn {
	if b.varIdx >= 0 {
		k, bi := a.i64, b.varIdx
		return func(fr *frame) status { fr.locals[d] = op(k, fr.locals[bi]); return stNext }
	}
	v := op(a.i64, b.i64)
	return func(fr *frame) status { fr.locals[d] = v; return stNext }
}

// binF compiles the shapes of a float op with a constant operand;
// compileStep hand-writes the var/var shape.
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

// compileStep compiles one instruction, whose operands are args, into its
// bare step closure: pure semantics, no accounting (the stretch charge
// supplies it).
func (m *Machine) compileStep(pin *pInstr, args []pOp) stepFn {
	in := pin.in
	d := in.Dst
	switch in.Op {
	case ir.OpMove:
		a := args[0]
		if a.varIdx >= 0 {
			ai := a.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai]; return stNext }
		}
		// move-const superinstruction: the constant is baked in.
		v := a.i64
		return func(fr *frame) status { fr.locals[d] = v; return stNext }

	case ir.OpAdd:
		a, b := args[0], args[1]
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] + fr.locals[bi]; return stNext }
		case a.varIdx >= 0:
			ai, k := a.varIdx, b.i64
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] + k; return stNext }
		}
		return binI(d, a, b, func(x, y int64) int64 { return x + y })
	case ir.OpSub:
		a, b := args[0], args[1]
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] - fr.locals[bi]; return stNext }
		case a.varIdx >= 0:
			ai, k := a.varIdx, b.i64
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] - k; return stNext }
		}
		return binI(d, a, b, func(x, y int64) int64 { return x - y })
	case ir.OpMul:
		a, b := args[0], args[1]
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] * fr.locals[bi]; return stNext }
		case a.varIdx >= 0:
			ai, k := a.varIdx, b.i64
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] * k; return stNext }
		}
		return binI(d, a, b, func(x, y int64) int64 { return x * y })
	case ir.OpAnd:
		a, b := args[0], args[1]
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] & fr.locals[bi]; return stNext }
		case a.varIdx >= 0:
			ai, k := a.varIdx, b.i64
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] & k; return stNext }
		}
		return binI(d, a, b, func(x, y int64) int64 { return x & y })
	case ir.OpOr:
		a, b := args[0], args[1]
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] | fr.locals[bi]; return stNext }
		case a.varIdx >= 0:
			ai, k := a.varIdx, b.i64
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] | k; return stNext }
		}
		return binI(d, a, b, func(x, y int64) int64 { return x | y })
	case ir.OpXor:
		a, b := args[0], args[1]
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] ^ fr.locals[bi]; return stNext }
		case a.varIdx >= 0:
			ai, k := a.varIdx, b.i64
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] ^ k; return stNext }
		}
		return binI(d, a, b, func(x, y int64) int64 { return x ^ y })
	case ir.OpShl:
		// Shift counts are masked to 6 bits, as in the reference.
		a, b := args[0], args[1]
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] << (uint64(fr.locals[bi]) & 63); return stNext }
		case a.varIdx >= 0:
			ai, k := a.varIdx, uint64(b.i64)&63
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] << k; return stNext }
		}
		return binI(d, a, b, func(x, y int64) int64 { return x << (uint64(y) & 63) })
	case ir.OpShr:
		a, b := args[0], args[1]
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] >> (uint64(fr.locals[bi]) & 63); return stNext }
		case a.varIdx >= 0:
			ai, k := a.varIdx, uint64(b.i64)&63
			return func(fr *frame) status { fr.locals[d] = fr.locals[ai] >> k; return stNext }
		}
		return binI(d, a, b, func(x, y int64) int64 { return x >> (uint64(y) & 63) })

	case ir.OpDiv, ir.OpRem:
		a, b := args[0], args[1]
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
		return unI(d, args[0], func(x int64) int64 { return -x })
	case ir.OpNot:
		return unI(d, args[0], func(x int64) int64 { return ^x })

	case ir.OpFAdd:
		a, b := args[0], args[1]
		if a.varIdx >= 0 && b.varIdx >= 0 {
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fbits(fl(fr, ai) + fl(fr, bi)); return stNext }
		}
		return binF(d, a, b, func(x, y float64) float64 { return x + y })
	case ir.OpFSub:
		a, b := args[0], args[1]
		if a.varIdx >= 0 && b.varIdx >= 0 {
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fbits(fl(fr, ai) - fl(fr, bi)); return stNext }
		}
		return binF(d, a, b, func(x, y float64) float64 { return x - y })
	case ir.OpFMul:
		a, b := args[0], args[1]
		if a.varIdx >= 0 && b.varIdx >= 0 {
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fbits(fl(fr, ai) * fl(fr, bi)); return stNext }
		}
		return binF(d, a, b, func(x, y float64) float64 { return x * y })
	case ir.OpFDiv:
		a, b := args[0], args[1]
		if a.varIdx >= 0 && b.varIdx >= 0 {
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = fbits(fl(fr, ai) / fl(fr, bi)); return stNext }
		}
		return binF(d, a, b, func(x, y float64) float64 { return x / y })
	case ir.OpFNeg:
		a := args[0]
		return func(fr *frame) status { fr.locals[d] = fbits(-pfv(fr, &a)); return stNext }
	case ir.OpIntToFloat:
		a := args[0]
		if a.varIdx >= 0 {
			ai := a.varIdx
			return func(fr *frame) status { fr.locals[d] = fbits(float64(fr.locals[ai])); return stNext }
		}
		v := fbits(float64(a.i64))
		return func(fr *frame) status { fr.locals[d] = v; return stNext }
	case ir.OpFloatToInt:
		a := args[0]
		return func(fr *frame) status { fr.locals[d] = int64(pfv(fr, &a)); return stNext }

	case ir.OpCmp:
		a, b := args[0], args[1]
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
		c := maskOf(in.Cond)
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			ai, bi := a.varIdx, b.varIdx
			return func(fr *frame) status { fr.locals[d] = b2i(c.holds(fr.locals[ai], fr.locals[bi])); return stNext }
		case a.varIdx >= 0:
			ai, k := a.varIdx, b.i64
			return func(fr *frame) status { fr.locals[d] = b2i(c.holds(fr.locals[ai], k)); return stNext }
		}
		return func(fr *frame) status { fr.locals[d] = b2i(c.holds(pv(fr, &a), pv(fr, &b))); return stNext }

	case ir.OpMath:
		a := args[0]
		mf := in.Fn
		return func(fr *frame) status { fr.locals[d] = fbits(mathFn(mf, pfv(fr, &a))); return stNext }

	case ir.OpInstanceOf:
		a := args[0]
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
		a := args[0]
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
					m.tier.guard = in // deoptimized by settle
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
		a := args[0]
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
		a := args[0]
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
		a, b := args[0], args[1]
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
		a := args[0]
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
		a, b := args[0], args[1]
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
		a, b := args[0], args[1]
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
		a, b, c := args[0], args[1], args[2]
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
		return m.compileCall(pin, args)

	case ir.OpIf:
		// Integer var-first shapes run inline in the block loop (cTerm).
		return compileIf(pin, args)
	case ir.OpThrow:
		a := args[0]
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

// compileIf compiles the conditional branches the block loop does not run
// inline: float compares and const-first integer shapes.
func compileIf(pin *pInstr, args []pOp) stepFn {
	in := pin.in
	t0, t1 := in.Targets[0].ID, in.Targets[1].ID
	a, b := args[0], args[1]
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
	c := maskOf(in.Cond)
	return func(fr *frame) status {
		if c.holds(pv(fr, &a), pv(fr, &b)) {
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
// engine resolves every call through Callee.Fn dynamically. args are the
// call's operands, read from the prepared table.
func (m *Machine) compileCall(pin *pInstr, args []pOp) stepFn {
	in := pin.in
	cal := in.Callee
	virtual := in.Op == ir.OpCallVirtual
	hasDst := in.HasDst()
	d := in.Dst
	// scratch is recursion-safe: every engine entry copies it into the
	// callee frame before the callee body (and thus any reentry of this
	// closure) runs.
	scratch := make([]int64, len(args))
	// Per-call-site memo of the callee's closure code, filled after a call
	// on an untiered machine once the callee has code, so later calls skip
	// invoke's table lookup. It is valid as long as the target Func is
	// unchanged; a stale-but-matching entry after ResetPrepared is harmless,
	// as recompiling the same Func yields observationally identical
	// closures. A tiered machine's rung can change between calls, so there
	// every call goes through invoke.
	var ccFn *ir.Func
	var ccCf *cFunc
	return func(fr *frame) status {
		m.Stats.Calls++
		if virtual {
			// Dispatch reads the header slot: the trap point.
			// A live-heap receiver takes finishLoad's fast path.
			m.Stats.Loads++
			addr := pv(fr, &args[0])
			if _, ok := m.Heap.TryLoad(addr, m.heapLo); !ok {
				_, r, err := m.load(in, addr)
				if err != nil {
					fr.err = err
					return stErr
				}
				if r != nil {
					fr.pending = r
					return stRaise
				}
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
		if callee == ccFn {
			out, err = m.execCf(callee, ccCf, scratch, fr.depth+1)
		} else {
			out, err = m.invoke(callee, scratch, fr.depth+1)
			if m.tier == nil {
				if e := m.fns[callee]; e.cf != nil {
					ccFn, ccCf = callee, e.cf
				}
			}
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

// fuse tries to fuse the instructions at the head of pins into one
// superinstruction and returns it with the number of instructions it
// covers (0 when no rule applies). It is the one implementation of every
// fusion rule. A fused step whose early part exits the block must itself
// un-charge its unexecuted later parts
// (the runner's suffix for the step only covers what follows it);
// uncharge() does that. pins is a stretch of a block of pf.
func (m *Machine) fuse(pf *pFunc, pins []pInstr) (stepFn, int) {
	if len(pins) < 2 {
		return nil, 0
	}
	p, q := &pins[0], &pins[1]
	if siteCounted(p) || siteCounted(q) {
		return nil, 0
	}
	pa, qa := pf.args(p), pf.args(q)
	// Speculation guards never fuse: the guard traps instead of throwing and
	// must not count as an explicit check, which the fused shapes do.
	if p.in.Op == ir.OpNullCheck && p.in.SpecGuard == 0 && pa[0].varIdx >= 0 {
		switch q.in.Op {
		case ir.OpGetField, ir.OpPutField, ir.OpArrayLength:
			if qa[0].varIdx == pa[0].varIdx {
				return m.bareNullDeref(pf, p, q), 2
			}
		}
	}
	if boundArray(pf, p, q) {
		return m.bareBoundArray(pf, nil, p, q), 2
	}
	// arraylength n, a; boundcheck i, n; access a[i]: the checked array
	// access the bound check's length comes from.
	if p.in.Op == ir.OpArrayLength && pa[0].varIdx >= 0 && len(pins) > 2 {
		r := &pins[2]
		if !siteCounted(r) && boundArray(pf, q, r) && qa[1].varIdx == int32(p.in.Dst) &&
			pf.args(r)[0].varIdx == pa[0].varIdx {
			return m.bareBoundArray(pf, p, q, r), 3
		}
	}
	if s := m.bareMulAdd(pf, p, q); s != nil {
		return s, 2
	}
	return nil, 0
}

// boundArray reports whether p;q is a bound check and the array access it
// guards (the access indexes by the checked variable).
func boundArray(pf *pFunc, p, q *pInstr) bool {
	if p.in.Op != ir.OpBoundCheck {
		return false
	}
	pa := pf.args(p)
	if pa[0].varIdx < 0 || pa[1].varIdx < 0 {
		return false
	}
	switch q.in.Op {
	case ir.OpArrayLoad, ir.OpArrayStore:
		qa := pf.args(q)
		return qa[0].varIdx >= 0 && qa[1].varIdx == pa[0].varIdx
	}
	return false
}

// mulAddShape reports whether p;q (operands pa and qa) is a multiply
// feeding an add through p's destination, p's first operand a variable, and
// returns the index of q's other operand.
func mulAddShape(p, q *pInstr, pa, qa []pOp, mul, add ir.Op) (other int, ok bool) {
	if p.in.Op != mul || q.in.Op != add || pa[0].varIdx < 0 {
		return 0, false
	}
	t := int32(p.in.Dst)
	switch {
	case qa[0].varIdx == t:
		return 1, true
	case qa[1].varIdx == t:
		return 0, true
	}
	return 0, false
}

// bareMulAdd fuses a multiply with the add that consumes its result, in
// integers (mul by a constant, the scaled-index shape) and in floats (the
// dot-product shape). The product is still written: later code may read
// it. The float pair rounds twice, like the reference: the explicit
// float64 conversion forbids fused multiply-add contraction.
func (m *Machine) bareMulAdd(pf *pFunc, p, q *pInstr) stepFn {
	t, d := p.in.Dst, q.in.Dst
	pa, qa := pf.args(p), pf.args(q)
	if o, ok := mulAddShape(p, q, pa, qa, ir.OpMul, ir.OpAdd); ok && pa[1].varIdx < 0 {
		x, k := pa[0].varIdx, pa[1].i64
		if y := qa[o]; y.varIdx >= 0 {
			yi := y.varIdx
			return func(fr *frame) status {
				v := fr.locals[x] * k
				fr.locals[t] = v
				fr.locals[d] = v + fr.locals[yi]
				return stNext
			}
		}
		c := qa[o].i64
		return func(fr *frame) status {
			v := fr.locals[x] * k
			fr.locals[t] = v
			fr.locals[d] = v + c
			return stNext
		}
	}
	if o, ok := mulAddShape(p, q, pa, qa, ir.OpFMul, ir.OpFAdd); ok && pa[1].varIdx >= 0 && qa[o].varIdx >= 0 {
		// The add keeps the reference's operand order: with two NaN
		// operands the result's payload depends on it.
		x, y, z := pa[0].varIdx, pa[1].varIdx, qa[o].varIdx
		if o == 1 {
			return func(fr *frame) status {
				prod := fl(fr, x) * fl(fr, y)
				fr.locals[t] = fbits(prod)
				fr.locals[d] = fbits(float64(prod) + fl(fr, z))
				return stNext
			}
		}
		return func(fr *frame) status {
			prod := fl(fr, x) * fl(fr, y)
			fr.locals[t] = fbits(prod)
			fr.locals[d] = fbits(fl(fr, z) + float64(prod))
			return stNext
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
func (m *Machine) bareNullDeref(pf *pFunc, p, q *pInstr) stepFn {
	ai := pf.args(p)[0].varIdx
	chk := p.chk
	in := q.in
	costD, impD := int64(q.cost), in.ExcSite

	// countCheck mirrors the unfused check's accounting, including the
	// check's counter cell (speculation's or attribution's) when bound.
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
		b := pf.args(q)[1]
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
// the bound test feeds straight into the address computation. With l
// non-nil the step first runs the arraylength the check's length comes
// from.
func (m *Machine) bareBoundArray(pf *pFunc, l, p, q *pInstr) stepFn {
	pa, qa := pf.args(p), pf.args(q)
	ii, ni := pa[0].varIdx, pa[1].varIdx
	bi := qa[0].varIdx
	in := q.in
	costB, impB := int64(p.cost), p.in.ExcSite
	costD, impD := int64(q.cost), in.ExcSite
	if in.Op == ir.OpArrayLoad {
		d := in.Dst
		if l == nil {
			return func(fr *frame) status {
				m.Stats.BoundChecks++
				idx := fr.locals[ii]
				if idx < 0 || idx >= fr.locals[ni] {
					return m.outOfBounds(fr, costD, impD)
				}
				m.Stats.Loads++
				return m.finishLoad(fr, in, fr.locals[bi]+ir.ArrayHeaderBytes+idx*ir.WordBytes, d)
			}
		}
		lin, li := l.in, pf.args(l)[0].varIdx
		return func(fr *frame) status {
			m.Stats.Loads++
			if st := m.finishLoad(fr, lin, fr.locals[li], ir.VarID(ni)); st != stNext {
				// The arraylength left the block: un-charge the check and
				// the access.
				m.uncharge(costB, impB)
				m.uncharge(costD, impD)
				return st
			}
			m.Stats.BoundChecks++
			idx := fr.locals[ii]
			if idx < 0 || idx >= fr.locals[ni] {
				return m.outOfBounds(fr, costD, impD)
			}
			m.Stats.Loads++
			return m.finishLoad(fr, in, fr.locals[bi]+ir.ArrayHeaderBytes+idx*ir.WordBytes, d)
		}
	}
	c := qa[2]
	if l == nil {
		return func(fr *frame) status {
			m.Stats.BoundChecks++
			idx := fr.locals[ii]
			if idx < 0 || idx >= fr.locals[ni] {
				return m.outOfBounds(fr, costD, impD)
			}
			m.Stats.Stores++
			return m.finishStore(fr, in, fr.locals[bi]+ir.ArrayHeaderBytes+idx*ir.WordBytes, pv(fr, &c))
		}
	}
	lin, li := l.in, pf.args(l)[0].varIdx
	return func(fr *frame) status {
		m.Stats.Loads++
		if st := m.finishLoad(fr, lin, fr.locals[li], ir.VarID(ni)); st != stNext {
			m.uncharge(costB, impB)
			m.uncharge(costD, impD)
			return st
		}
		m.Stats.BoundChecks++
		idx := fr.locals[ii]
		if idx < 0 || idx >= fr.locals[ni] {
			return m.outOfBounds(fr, costD, impD)
		}
		m.Stats.Stores++
		return m.finishStore(fr, in, fr.locals[bi]+ir.ArrayHeaderBytes+idx*ir.WordBytes, pv(fr, &c))
	}
}

// outOfBounds raises a fused bound check's exception and un-charges the
// access it guarded.
func (m *Machine) outOfBounds(fr *frame, cost int64, imp bool) status {
	m.Stats.ThrownSoftware++
	fr.pending = m.throw(rt.ExcArrayIndexOutOfBounds)
	m.uncharge(cost, imp)
	return stRaise
}
