package ir

import "fmt"

// Op enumerates the IR opcodes.
type Op uint8

const (
	OpInvalid Op = iota

	// Data movement and arithmetic. Div and Rem can throw
	// ArithmeticException and are therefore side-effecting barriers.
	OpMove
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFNeg
	OpIntToFloat
	OpFloatToInt
	OpCmp  // dst = compare(a, b) per Cond, producing 0/1
	OpMath // dst = MathFn(a[, b]); the arch-lowered intrinsic form
	// OpInstanceOf sets dst to 1 when a is a non-null instance of Class.
	// `instanceof` on null is false, so a branch on the result proves
	// non-nullness on the true edge — the paper's instanceof-if Edge rule.
	// Reading the header makes it a dereference ONLY for non-null values;
	// the instruction itself never faults.
	OpInstanceOf

	// Null checking. OpNullCheck is the splittable check the paper's
	// algorithms operate on. After phase 2, surviving checks are flagged
	// Explicit (they cost real instructions) and consumed checks vanish,
	// leaving an ExcSite mark on the guarded dereference.
	OpNullCheck

	// Object and array operations.
	OpNew         // dst = new Class
	OpNewArray    // dst = new [a]word
	OpGetField    // dst = a.Field
	OpPutField    // a.Field = b
	OpArrayLength // dst = a.length       (slot at offset 0)
	OpBoundCheck  // check 0 <= a < b, throw AIOOBE
	OpArrayLoad   // dst = a[b]
	OpArrayStore  // a[b] = c

	// Calls.
	OpCallStatic
	OpCallVirtual // receiver is Args[0]; dispatch reads the header slot

	// Control flow (block terminators).
	OpJump
	OpIf     // if Cond(a, b) goto Targets[0] else Targets[1]
	OpReturn // optional value
	OpThrow  // throw exception object a
)

var opNames = [...]string{
	OpInvalid:     "invalid",
	OpMove:        "move",
	OpAdd:         "add",
	OpSub:         "sub",
	OpMul:         "mul",
	OpDiv:         "div",
	OpRem:         "rem",
	OpAnd:         "and",
	OpOr:          "or",
	OpXor:         "xor",
	OpShl:         "shl",
	OpShr:         "shr",
	OpNeg:         "neg",
	OpNot:         "not",
	OpFAdd:        "fadd",
	OpFSub:        "fsub",
	OpFMul:        "fmul",
	OpFDiv:        "fdiv",
	OpFNeg:        "fneg",
	OpIntToFloat:  "i2f",
	OpFloatToInt:  "f2i",
	OpCmp:         "cmp",
	OpMath:        "math",
	OpInstanceOf:  "instanceof",
	OpNullCheck:   "nullcheck",
	OpNew:         "new",
	OpNewArray:    "newarray",
	OpGetField:    "getfield",
	OpPutField:    "putfield",
	OpArrayLength: "arraylength",
	OpBoundCheck:  "boundcheck",
	OpArrayLoad:   "aload",
	OpArrayStore:  "astore",
	OpCallStatic:  "call",
	OpCallVirtual: "callvirt",
	OpJump:        "jump",
	OpIf:          "if",
	OpReturn:      "return",
	OpThrow:       "throw",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Cond is a comparison condition for OpIf and OpCmp.
type Cond uint8

const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

func (c Cond) String() string {
	switch c {
	case CondEQ:
		return "=="
	case CondNE:
		return "!="
	case CondLT:
		return "<"
	case CondLE:
		return "<="
	case CondGT:
		return ">"
	case CondGE:
		return ">="
	}
	return "?"
}

// Negate returns the complementary condition.
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondLE:
		return CondGT
	case CondGT:
		return CondLE
	case CondGE:
		return CondLT
	}
	return c
}

// MathFn enumerates math intrinsics. On architectures without the matching
// instruction these remain runtime calls, which is the platform difference
// the paper observes for Math.exp on PowerPC (§5.4).
type MathFn uint8

const (
	MathNone MathFn = iota
	MathExp
	MathLog
	MathSin
	MathCos
	MathSqrt
	MathAbs
	MathPow
)

func (m MathFn) String() string {
	switch m {
	case MathExp:
		return "exp"
	case MathLog:
		return "log"
	case MathSin:
		return "sin"
	case MathCos:
		return "cos"
	case MathSqrt:
		return "sqrt"
	case MathAbs:
		return "abs"
	case MathPow:
		return "pow"
	}
	return "none"
}

// OperandKind distinguishes variables from immediates. The zero value is
// deliberately invalid: a forgotten Operand must fail validation loudly
// rather than masquerade as "variable v0".
type OperandKind uint8

const (
	OperInvalid OperandKind = iota
	OperVar
	OperConstInt
	OperConstFloat
	OperConstNull
)

// Operand is an instruction input: a local variable or a constant.
type Operand struct {
	Kind  OperandKind
	Var   VarID
	Int   int64
	Float float64
}

// Var returns a variable operand.
func Var(v VarID) Operand { return Operand{Kind: OperVar, Var: v} }

// ConstInt returns an integer immediate operand.
func ConstInt(v int64) Operand { return Operand{Kind: OperConstInt, Int: v} }

// ConstFloat returns a float immediate operand.
func ConstFloat(v float64) Operand { return Operand{Kind: OperConstFloat, Float: v} }

// Null returns the null-reference immediate.
func Null() Operand { return Operand{Kind: OperConstNull} }

// IsVar reports whether the operand reads a variable.
func (o Operand) IsVar() bool { return o.Kind == OperVar }

func (o Operand) String() string {
	switch o.Kind {
	case OperVar:
		return fmt.Sprintf("v%d", o.Var)
	case OperConstInt:
		return fmt.Sprintf("%d", o.Int)
	case OperConstFloat:
		return fmt.Sprintf("%g", o.Float)
	case OperConstNull:
		return "null"
	}
	return "?"
}

// CheckReason records why a null check exists; inlined devirtualized calls
// produce the checks phase 2 exists to optimize (paper Figures 1 and 7).
type CheckReason uint8

const (
	ReasonField CheckReason = iota
	ReasonArray
	ReasonCall
	ReasonInlined // materialized by devirtualization/inlining
	ReasonMoved   // re-inserted by the null check optimizer itself
)

func (r CheckReason) String() string {
	switch r {
	case ReasonField:
		return "field"
	case ReasonArray:
		return "array"
	case ReasonCall:
		return "call"
	case ReasonInlined:
		return "inlined"
	case ReasonMoved:
		return "moved"
	}
	return "?"
}

// Instr is a single IR instruction. Instructions are heap-allocated and
// identified by pointer; the optimizer rewrites block slices in place.
type Instr struct {
	Op   Op
	Dst  VarID
	Args []Operand

	Field  *Field  // OpGetField, OpPutField
	Class  *Class  // OpNew
	Callee *Method // OpCallStatic, OpCallVirtual
	Cond   Cond    // OpIf, OpCmp
	Fn     MathFn  // OpMath

	// Targets are the successor blocks of a terminator: Jump has one,
	// If has two (then, else).
	Targets []*Block

	// Reason records the origin of an OpNullCheck.
	Reason CheckReason

	// Explicit marks an OpNullCheck that survived phase 2 and must be
	// emitted as real instructions (compare+branch or conditional trap).
	// Before phase 2 runs, all checks are notionally explicit; the flag is
	// only meaningful to code generation.
	Explicit bool

	// ExcSite marks a dereferencing instruction as the exception site of an
	// implicit null check: the hardware trap taken here must be translated
	// into a NullPointerException, and later phases must not move the
	// instruction across the site.
	ExcSite bool
	// ExcVar is the variable whose null check this exception site covers.
	ExcVar VarID

	// Speculated marks a memory read hoisted above its null check on
	// architectures that cannot trap on reads (paper §3.3.1, AIX).
	Speculated bool

	// SpecGuard, when non-zero on an OpNullCheck, marks the check as a
	// tier-2 speculation guard: the profile showed zero observed nulls, so
	// the compiled fast path carries no check instruction at all (the check
	// costs zero cycles and is not counted as an explicit check). If the
	// reference IS null the guard fires as a hardware trap and the runtime
	// deoptimizes. The value is the check's ordinal in Func.NullChecks
	// order plus one, so a fired guard maps back to its speculation
	// decision without any side table.
	SpecGuard int32

	// TrapSite, when non-zero, is the stable per-method ordinal (plus one)
	// of an implicit null check site, assigned deterministically after the
	// pipeline runs. The trap-storm governor keys its per-site null-rate
	// profile and its DemoteSet on this ordinal, so the same source-level
	// dereference keeps one identity across recompiles. A demoted site
	// carries the ordinal on the inserted explicit OpNullCheck instead (the
	// dereference itself is no longer a site).
	TrapSite int32
}

// NullCheckVar returns the variable an OpNullCheck guards.
func (in *Instr) NullCheckVar() VarID {
	if in.Op != OpNullCheck {
		panic("ir: NullCheckVar on non-nullcheck")
	}
	return in.Args[0].Var
}

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpJump, OpIf, OpReturn, OpThrow:
		return true
	}
	return false
}

// HasDst reports whether the instruction writes a local variable.
func (in *Instr) HasDst() bool { return in.Dst != NoVar }

// CanThrowOther reports whether the instruction can throw an exception other
// than a null pointer exception. Such instructions are the side-effect
// barriers of every analysis in the paper (Kill sets in §4.1.1, §4.2.1).
func (in *Instr) CanThrowOther() bool {
	switch in.Op {
	case OpDiv, OpRem, OpBoundCheck, OpNew, OpNewArray, OpThrow:
		return true
	case OpCallStatic, OpCallVirtual:
		return true
	}
	return false
}

// WritesMemory reports whether the instruction can write to heap memory.
func (in *Instr) WritesMemory() bool {
	switch in.Op {
	case OpPutField, OpArrayStore:
		return true
	case OpCallStatic, OpCallVirtual:
		return true
	}
	return false
}

// ReadsMemory reports whether the instruction reads heap memory.
func (in *Instr) ReadsMemory() bool {
	switch in.Op {
	case OpGetField, OpArrayLength, OpArrayLoad:
		return true
	case OpCallStatic, OpCallVirtual:
		return true
	}
	return false
}

// SlotAccess describes a dereference of an object or array base.
type SlotAccess struct {
	Base    VarID
	Offset  int32 // byte offset; negative means dynamic (array element)
	IsWrite bool
	// Dynamic marks array element accesses whose concrete offset depends on
	// the index and may exceed the protected trap area.
	Dynamic bool
}

// SlotAccessInfo returns the dereference this instruction performs on a
// variable base, if any. The null check analyses use it both for Kill sets
// (a dereference consumes a moving check) and for implicit-check eligibility.
func (in *Instr) SlotAccessInfo() (SlotAccess, bool) {
	switch in.Op {
	case OpGetField:
		if in.Args[0].IsVar() {
			return SlotAccess{Base: in.Args[0].Var, Offset: in.Field.Offset}, true
		}
	case OpPutField:
		if in.Args[0].IsVar() {
			return SlotAccess{Base: in.Args[0].Var, Offset: in.Field.Offset, IsWrite: true}, true
		}
	case OpArrayLength:
		if in.Args[0].IsVar() {
			return SlotAccess{Base: in.Args[0].Var, Offset: 0}, true
		}
	case OpArrayLoad:
		if in.Args[0].IsVar() {
			return SlotAccess{Base: in.Args[0].Var, Offset: -1, Dynamic: true}, true
		}
	case OpArrayStore:
		if in.Args[0].IsVar() {
			return SlotAccess{Base: in.Args[0].Var, Offset: -1, IsWrite: true, Dynamic: true}, true
		}
	case OpCallVirtual:
		// Virtual dispatch loads the method table from the header slot.
		if in.Args[0].IsVar() {
			return SlotAccess{Base: in.Args[0].Var, Offset: 0}, true
		}
	}
	return SlotAccess{}, false
}

// Clone returns a deep copy of the instruction with the same targets.
func (in *Instr) Clone() *Instr {
	cp := *in
	cp.Args = append([]Operand(nil), in.Args...)
	cp.Targets = append([]*Block(nil), in.Targets...)
	return &cp
}
