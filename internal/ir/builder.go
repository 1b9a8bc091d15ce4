package ir

import "fmt"

// Builder constructs a Func block by block. Its dereferencing helpers emit
// the paper's split form automatically: every field access, array access and
// virtual call is preceded by an OpNullCheck of its base, and every array
// element access carries an arraylength + boundcheck sequence (Figure 6).
type Builder struct {
	F   *Func
	cur *Block
	tmp int
}

// NewFunc starts a function. Parameters are declared first, in order; if
// instance is true the first parameter is the receiver ("this").
func NewFunc(name string, instance bool) *Builder {
	return &Builder{F: &Func{Name: name, IsInstance: instance}}
}

// Param declares the next parameter.
func (b *Builder) Param(name string, k Kind) VarID {
	if len(b.F.Blocks) > 0 {
		panic("ir: Param after first block")
	}
	v := b.F.NewLocal(name, k)
	b.F.NumParams++
	return v
}

// Result declares the function result kind.
func (b *Builder) Result(k Kind) *Builder {
	b.F.HasResult = true
	b.F.ResultKind = k
	return b
}

// Local declares a named local variable.
func (b *Builder) Local(name string, k Kind) VarID { return b.F.NewLocal(name, k) }

// Temp declares an anonymous temporary.
func (b *Builder) Temp(k Kind) VarID {
	b.tmp++
	return b.F.NewLocal(fmt.Sprintf("t%d", b.tmp), k)
}

// Block creates a new block and makes it current.
func (b *Builder) Block(name string) *Block {
	blk := b.F.NewBlock(name)
	b.cur = blk
	return blk
}

// DeclareBlock creates a block without switching to it (for forward refs).
func (b *Builder) DeclareBlock(name string) *Block {
	blk := b.F.NewBlock(name)
	if b.cur == nil {
		b.cur = blk
	}
	return blk
}

// SetBlock switches emission to blk.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// Cur returns the current block.
func (b *Builder) Cur() *Block { return b.cur }

// Emit appends a raw instruction to the current block.
func (b *Builder) Emit(in *Instr) *Instr {
	if b.cur == nil {
		panic("ir: Emit with no current block")
	}
	if t := b.cur.Terminator(); t != nil {
		panic(fmt.Sprintf("ir: emit after terminator in %s", b.cur))
	}
	b.cur.Instrs = append(b.cur.Instrs, in)
	return in
}

// Move emits dst = src.
func (b *Builder) Move(dst VarID, src Operand) *Instr {
	return b.Emit(&Instr{Op: OpMove, Dst: dst, Args: []Operand{src}})
}

// Binop emits dst = op(x, y).
func (b *Builder) Binop(op Op, dst VarID, x, y Operand) *Instr {
	return b.Emit(&Instr{Op: op, Dst: dst, Args: []Operand{x, y}})
}

// Unop emits dst = op(x).
func (b *Builder) Unop(op Op, dst VarID, x Operand) *Instr {
	return b.Emit(&Instr{Op: op, Dst: dst, Args: []Operand{x}})
}

// Cmp emits dst = (x cond y) as 0/1.
func (b *Builder) Cmp(dst VarID, cond Cond, x, y Operand) *Instr {
	return b.Emit(&Instr{Op: OpCmp, Dst: dst, Cond: cond, Args: []Operand{x, y}})
}

// Math emits dst = fn(x).
func (b *Builder) Math(fn MathFn, dst VarID, x Operand) *Instr {
	return b.Emit(&Instr{Op: OpMath, Dst: dst, Fn: fn, Args: []Operand{x}})
}

// InstanceOf emits dst = (v instanceof c).
func (b *Builder) InstanceOf(dst, v VarID, c *Class) *Instr {
	return b.Emit(&Instr{Op: OpInstanceOf, Dst: dst, Class: c, Args: []Operand{Var(v)}})
}

// NullCheck emits an explicit nullcheck of v.
func (b *Builder) NullCheck(v VarID, reason CheckReason) *Instr {
	return b.Emit(&Instr{Op: OpNullCheck, Dst: NoVar, Args: []Operand{Var(v)}, Reason: reason, Explicit: true})
}

// New emits dst = new c.
func (b *Builder) New(dst VarID, c *Class) *Instr {
	return b.Emit(&Instr{Op: OpNew, Dst: dst, Class: c})
}

// NewArray emits dst = new [n]word.
func (b *Builder) NewArray(dst VarID, n Operand) *Instr {
	return b.Emit(&Instr{Op: OpNewArray, Dst: dst, Args: []Operand{n}})
}

// GetField emits nullcheck obj; dst = obj.f.
func (b *Builder) GetField(dst, obj VarID, f *Field) *Instr {
	b.NullCheck(obj, ReasonField)
	return b.Emit(&Instr{Op: OpGetField, Dst: dst, Field: f, Args: []Operand{Var(obj)}})
}

// PutField emits nullcheck obj; obj.f = src.
func (b *Builder) PutField(obj VarID, f *Field, src Operand) *Instr {
	b.NullCheck(obj, ReasonField)
	return b.Emit(&Instr{Op: OpPutField, Dst: NoVar, Field: f, Args: []Operand{Var(obj), src}})
}

// ArrayLength emits nullcheck arr; dst = arr.length.
func (b *Builder) ArrayLength(dst, arr VarID) *Instr {
	b.NullCheck(arr, ReasonArray)
	return b.Emit(&Instr{Op: OpArrayLength, Dst: dst, Args: []Operand{Var(arr)}})
}

// ArrayLoad emits the full checked sequence:
//
//	nullcheck arr; len = arraylength arr; boundcheck idx, len; dst = arr[idx]
func (b *Builder) ArrayLoad(dst, arr VarID, idx Operand) *Instr {
	ln := b.Temp(KindInt)
	b.ArrayLength(ln, arr)
	b.Emit(&Instr{Op: OpBoundCheck, Dst: NoVar, Args: []Operand{idx, Var(ln)}})
	return b.Emit(&Instr{Op: OpArrayLoad, Dst: dst, Args: []Operand{Var(arr), idx}})
}

// ArrayStore emits the full checked sequence for arr[idx] = src.
func (b *Builder) ArrayStore(arr VarID, idx, src Operand) *Instr {
	ln := b.Temp(KindInt)
	b.ArrayLength(ln, arr)
	b.Emit(&Instr{Op: OpBoundCheck, Dst: NoVar, Args: []Operand{idx, Var(ln)}})
	return b.Emit(&Instr{Op: OpArrayStore, Dst: NoVar, Args: []Operand{Var(arr), idx, src}})
}

// CallVirtual emits nullcheck recv; dst = recv.m(args...).
func (b *Builder) CallVirtual(dst VarID, m *Method, recv VarID, args ...Operand) *Instr {
	b.NullCheck(recv, ReasonCall)
	all := append([]Operand{Var(recv)}, args...)
	return b.Emit(&Instr{Op: OpCallVirtual, Dst: dst, Callee: m, Args: all})
}

// CallStatic emits dst = m(args...).
func (b *Builder) CallStatic(dst VarID, m *Method, args ...Operand) *Instr {
	return b.Emit(&Instr{Op: OpCallStatic, Dst: dst, Callee: m, Args: args})
}

// Jump terminates the current block with an unconditional jump.
func (b *Builder) Jump(t *Block) *Instr {
	return b.Emit(&Instr{Op: OpJump, Dst: NoVar, Targets: []*Block{t}})
}

// If terminates the current block with a conditional branch.
func (b *Builder) If(cond Cond, x, y Operand, then, els *Block) *Instr {
	return b.Emit(&Instr{Op: OpIf, Dst: NoVar, Cond: cond, Args: []Operand{x, y}, Targets: []*Block{then, els}})
}

// Return terminates with a value return.
func (b *Builder) Return(v Operand) *Instr {
	return b.Emit(&Instr{Op: OpReturn, Dst: NoVar, Args: []Operand{v}})
}

// ReturnVoid terminates with no value.
func (b *Builder) ReturnVoid() *Instr {
	return b.Emit(&Instr{Op: OpReturn, Dst: NoVar})
}

// Throw terminates by throwing the exception object in v.
func (b *Builder) Throw(v VarID) *Instr {
	return b.Emit(&Instr{Op: OpThrow, Dst: NoVar, Args: []Operand{Var(v)}})
}

// Finish recomputes edges, validates, and returns the function.
func (b *Builder) Finish() *Func {
	b.F.RecomputeEdges()
	if err := Validate(b.F); err != nil {
		panic(fmt.Sprintf("ir: invalid function %s: %v", b.F.Name, err))
	}
	return b.F
}
