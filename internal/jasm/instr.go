package jasm

import (
	"strconv"
	"strings"

	"trapnull/internal/ir"
)

// operand parses a variable name, integer/float literal, or null.
func (fp *funcParser) operand(s string) (ir.Operand, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "null":
		return ir.Null(), nil
	case s == "":
		return ir.Operand{}, fp.errf("empty operand")
	}
	if v, ok := fp.vars[s]; ok {
		return ir.Var(v), nil
	}
	if strings.ContainsAny(s, ".eE") && s != "e" {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return ir.ConstFloat(f), nil
		}
	}
	if n, err := strconv.ParseInt(s, 0, 64); err == nil {
		return ir.ConstInt(n), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return ir.ConstFloat(f), nil
	}
	return ir.Operand{}, fp.errf("unknown operand %q", s)
}

func (fp *funcParser) varOperand(s string) (ir.VarID, error) {
	s = strings.TrimSpace(s)
	v, ok := fp.vars[s]
	if !ok {
		return 0, fp.errf("unknown variable %q", s)
	}
	return v, nil
}

// fieldRef resolves "Class.field".
func (fp *funcParser) fieldRef(s string) (*ir.Field, error) {
	s = strings.TrimSpace(s)
	dot := strings.Index(s, ".")
	if dot < 0 {
		return nil, fp.errf("field reference %q needs Class.field", s)
	}
	cls := fp.prog.ClassByName(s[:dot])
	if cls == nil {
		return nil, fp.errf("unknown class %q", s[:dot])
	}
	f := cls.FieldByName(s[dot+1:])
	if f == nil {
		return nil, fp.errf("unknown field %q", s)
	}
	return f, nil
}

// splitArgs splits on commas at depth zero.
func splitArgs(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

var binops = map[string]ir.Op{
	"add": ir.OpAdd, "sub": ir.OpSub, "mul": ir.OpMul, "div": ir.OpDiv,
	"rem": ir.OpRem, "and": ir.OpAnd, "or": ir.OpOr, "xor": ir.OpXor,
	"shl": ir.OpShl, "shr": ir.OpShr,
	"fadd": ir.OpFAdd, "fsub": ir.OpFSub, "fmul": ir.OpFMul, "fdiv": ir.OpFDiv,
}

var unops = map[string]ir.Op{
	"neg": ir.OpNeg, "not": ir.OpNot, "fneg": ir.OpFNeg,
	"i2f": ir.OpIntToFloat, "f2i": ir.OpFloatToInt,
}

var conds = map[string]ir.Cond{
	"eq": ir.CondEQ, "ne": ir.CondNE, "lt": ir.CondLT,
	"le": ir.CondLE, "gt": ir.CondGT, "ge": ir.CondGE,
}

var mathFns = map[string]ir.MathFn{
	"exp": ir.MathExp, "log": ir.MathLog, "sin": ir.MathSin,
	"cos": ir.MathCos, "sqrt": ir.MathSqrt, "abs": ir.MathAbs,
}

// instr parses one instruction line.
func (fp *funcParser) instr(line string) error {
	if !fp.started {
		return fp.errf("instruction before first block label: %q", line)
	}
	if t := fp.b.Cur().Terminator(); t != nil {
		return fp.errf("instruction %q after the terminator of block %s", line, fp.b.Cur().Name)
	}

	// Annotations: "@excsite vN" marks the instruction as an implicit null
	// check exception site; "@spec" marks a speculated load. They attach to
	// the parsed instruction (the raw forms of optimized code carry them).
	var excVar string
	spec := false
	for {
		if i := strings.LastIndex(line, "@excsite "); i >= 0 {
			excVar = strings.TrimSpace(line[i+len("@excsite "):])
			line = strings.TrimSpace(line[:i])
			continue
		}
		if strings.HasSuffix(line, "@spec") {
			spec = true
			line = strings.TrimSpace(strings.TrimSuffix(line, "@spec"))
			continue
		}
		break
	}
	if excVar != "" || spec {
		if err := fp.instrCore(line); err != nil {
			return err
		}
		blk := fp.b.Cur()
		if len(blk.Instrs) == 0 {
			return fp.errf("annotation on empty block")
		}
		last := blk.Instrs[len(blk.Instrs)-1]
		if excVar != "" {
			v, err := fp.varOperand(excVar)
			if err != nil {
				return err
			}
			last.ExcSite = true
			last.ExcVar = v
		}
		if spec {
			last.Speculated = true
		}
		return nil
	}
	return fp.instrCore(line)
}

func (fp *funcParser) instrCore(line string) error {

	// Assignment form: "dst = op rest".
	if eq := strings.Index(line, "="); eq > 0 && !strings.Contains(line[:eq], " goto") {
		dstName := strings.TrimSpace(line[:eq])
		rest := strings.TrimSpace(line[eq+1:])
		dst, err := fp.varOperand(dstName)
		if err != nil {
			return err
		}
		return fp.assign(dst, rest)
	}

	fields := strings.Fields(line)
	if len(fields) == 0 {
		return fp.errf("empty instruction")
	}
	rest := strings.TrimSpace(line[len(fields[0]):])
	switch fields[0] {
	case "nullcheck":
		v, err := fp.varOperand(rest)
		if err != nil {
			return err
		}
		fp.b.NullCheck(v, ir.ReasonField)
		return nil
	case "putfield", "putfield!":
		// putfield obj, Class.f, src  (the ! form skips the auto nullcheck)
		raw := fields[0] == "putfield!"
		args := splitArgs(rest)
		if len(args) != 3 {
			return fp.errf("putfield needs obj, Class.f, src")
		}
		obj, err := fp.varOperand(args[0])
		if err != nil {
			return err
		}
		f, err := fp.fieldRef(args[1])
		if err != nil {
			return err
		}
		src, err := fp.operand(args[2])
		if err != nil {
			return err
		}
		if raw {
			fp.b.Emit(&ir.Instr{Op: ir.OpPutField, Dst: ir.NoVar, Field: f,
				Args: []ir.Operand{ir.Var(obj), src}})
		} else {
			fp.b.PutField(obj, f, src)
		}
		return nil
	case "astore", "astore!":
		// astore arr, idx, src  (the ! form emits only the raw store)
		raw := fields[0] == "astore!"
		args := splitArgs(rest)
		if len(args) != 3 {
			return fp.errf("astore needs arr, idx, src")
		}
		arr, err := fp.varOperand(args[0])
		if err != nil {
			return err
		}
		idx, err := fp.operand(args[1])
		if err != nil {
			return err
		}
		src, err := fp.operand(args[2])
		if err != nil {
			return err
		}
		if raw {
			fp.b.Emit(&ir.Instr{Op: ir.OpArrayStore, Dst: ir.NoVar,
				Args: []ir.Operand{ir.Var(arr), idx, src}})
		} else {
			fp.b.ArrayStore(arr, idx, src)
		}
		return nil
	case "boundcheck":
		args := splitArgs(rest)
		if len(args) != 2 {
			return fp.errf("boundcheck needs idx, len")
		}
		idx, err := fp.operand(args[0])
		if err != nil {
			return err
		}
		ln, err := fp.operand(args[1])
		if err != nil {
			return err
		}
		fp.b.Emit(&ir.Instr{Op: ir.OpBoundCheck, Dst: ir.NoVar, Args: []ir.Operand{idx, ln}})
		return nil
	case "jump":
		fp.b.Jump(fp.block(rest))
		return nil
	case "if":
		// if a lt b goto L1 else L2
		parts := strings.Fields(rest)
		if len(parts) != 7 || parts[3] != "goto" || parts[5] != "else" {
			return fp.errf("malformed if %q (want: if a lt b goto L1 else L2)", line)
		}
		a, err := fp.operand(parts[0])
		if err != nil {
			return err
		}
		cond, ok := conds[parts[1]]
		if !ok {
			return fp.errf("unknown condition %q", parts[1])
		}
		bop, err := fp.operand(parts[2])
		if err != nil {
			return err
		}
		fp.b.If(cond, a, bop, fp.block(parts[4]), fp.block(parts[6]))
		return nil
	case "return":
		if rest == "" {
			fp.b.ReturnVoid()
			return nil
		}
		v, err := fp.operand(rest)
		if err != nil {
			return err
		}
		fp.b.Return(v)
		return nil
	case "throw":
		v, err := fp.varOperand(rest)
		if err != nil {
			return err
		}
		fp.b.Throw(v)
		return nil
	case "call", "callv", "callv!":
		// Statement-form call without result.
		return fp.call(ir.NoVar, fields[0] != "call", fields[0] == "callv!", rest)
	}
	return fp.errf("unknown instruction %q", line)
}

// assign parses the right-hand side of "dst = ...".
func (fp *funcParser) assign(dst ir.VarID, rest string) error {
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return fp.errf("empty right-hand side")
	}
	op := fields[0]
	args := strings.TrimSpace(rest[len(op):])

	if bop, ok := binops[op]; ok {
		parts := splitArgs(args)
		if len(parts) != 2 {
			return fp.errf("%s needs two operands", op)
		}
		a, err := fp.operand(parts[0])
		if err != nil {
			return err
		}
		b, err := fp.operand(parts[1])
		if err != nil {
			return err
		}
		fp.b.Binop(bop, dst, a, b)
		return nil
	}
	if uop, ok := unops[op]; ok {
		a, err := fp.operand(args)
		if err != nil {
			return err
		}
		fp.b.Unop(uop, dst, a)
		return nil
	}

	switch op {
	case "move", "const":
		a, err := fp.operand(args)
		if err != nil {
			return err
		}
		fp.b.Move(dst, a)
		return nil
	case "cmp":
		// dst = cmp lt a, b
		parts := strings.Fields(args)
		if len(parts) < 2 {
			return fp.errf("cmp needs cond and operands")
		}
		cond, ok := conds[parts[0]]
		if !ok {
			return fp.errf("unknown condition %q", parts[0])
		}
		ops := splitArgs(strings.TrimSpace(args[len(parts[0]):]))
		if len(ops) != 2 {
			return fp.errf("cmp needs two operands")
		}
		a, err := fp.operand(ops[0])
		if err != nil {
			return err
		}
		b, err := fp.operand(ops[1])
		if err != nil {
			return err
		}
		fp.b.Cmp(dst, cond, a, b)
		return nil
	case "math":
		// dst = math exp x
		parts := strings.Fields(args)
		if len(parts) != 2 {
			return fp.errf("math needs fn and operand")
		}
		fn, ok := mathFns[parts[0]]
		if !ok {
			return fp.errf("unknown math fn %q", parts[0])
		}
		a, err := fp.operand(parts[1])
		if err != nil {
			return err
		}
		fp.b.Math(fn, dst, a)
		return nil
	case "new":
		cls := fp.prog.ClassByName(args)
		if cls == nil {
			return fp.errf("unknown class %q", args)
		}
		fp.b.New(dst, cls)
		return nil
	case "instanceof":
		// dst = instanceof v, Class
		parts := splitArgs(args)
		if len(parts) != 2 {
			return fp.errf("instanceof needs v, Class")
		}
		v, err := fp.varOperand(parts[0])
		if err != nil {
			return err
		}
		cls := fp.prog.ClassByName(parts[1])
		if cls == nil {
			return fp.errf("unknown class %q", parts[1])
		}
		fp.b.InstanceOf(dst, v, cls)
		return nil
	case "newarray":
		n, err := fp.operand(args)
		if err != nil {
			return err
		}
		fp.b.NewArray(dst, n)
		return nil
	case "getfield", "getfield!":
		// dst = getfield obj, Class.f  (the ! form skips the auto nullcheck)
		parts := splitArgs(args)
		if len(parts) != 2 {
			return fp.errf("getfield needs obj, Class.f")
		}
		obj, err := fp.varOperand(parts[0])
		if err != nil {
			return err
		}
		f, err := fp.fieldRef(parts[1])
		if err != nil {
			return err
		}
		if op == "getfield!" {
			fp.b.Emit(&ir.Instr{Op: ir.OpGetField, Dst: dst, Field: f,
				Args: []ir.Operand{ir.Var(obj)}})
		} else {
			fp.b.GetField(dst, obj, f)
		}
		return nil
	case "arraylength", "arraylength!":
		arr, err := fp.varOperand(args)
		if err != nil {
			return err
		}
		if op == "arraylength!" {
			fp.b.Emit(&ir.Instr{Op: ir.OpArrayLength, Dst: dst,
				Args: []ir.Operand{ir.Var(arr)}})
		} else {
			fp.b.ArrayLength(dst, arr)
		}
		return nil
	case "aload", "aload!":
		parts := splitArgs(args)
		if len(parts) != 2 {
			return fp.errf("aload needs arr, idx")
		}
		arr, err := fp.varOperand(parts[0])
		if err != nil {
			return err
		}
		idx, err := fp.operand(parts[1])
		if err != nil {
			return err
		}
		if op == "aload!" {
			fp.b.Emit(&ir.Instr{Op: ir.OpArrayLoad, Dst: dst,
				Args: []ir.Operand{ir.Var(arr), idx}})
		} else {
			fp.b.ArrayLoad(dst, arr, idx)
		}
		return nil
	case "call", "callv", "callv!":
		return fp.call(dst, op != "call", op == "callv!", args)
	}
	// Bare-operand shorthand: `dst = null`, `dst = 5`, `dst = other`.
	if len(fields) == 1 {
		if o, err := fp.operand(rest); err == nil {
			fp.b.Move(dst, o)
			return nil
		}
	}
	return fp.errf("unknown operation %q", op)
}

// call parses "name(arg, arg, ...)" for static and virtual calls; virtual
// calls take the receiver as the first argument. rawVirtual skips the
// receiver's automatic null check (the form optimized code uses).
func (fp *funcParser) call(dst ir.VarID, virtual, rawVirtual bool, rest string) error {
	open := strings.Index(rest, "(")
	closeP := strings.LastIndex(rest, ")")
	if open < 0 || closeP < open {
		return fp.errf("malformed call %q", rest)
	}
	name := strings.TrimSpace(rest[:open])
	m := fp.prog.MethodByName(name)
	if m == nil {
		return fp.errf("unknown method %q (define callees before callers)", name)
	}
	argSrcs := splitArgs(rest[open+1 : closeP])
	if virtual {
		if len(argSrcs) == 0 {
			return fp.errf("virtual call needs a receiver")
		}
		recv, err := fp.varOperand(argSrcs[0])
		if err != nil {
			return err
		}
		var args []ir.Operand
		for _, a := range argSrcs[1:] {
			o, err := fp.operand(a)
			if err != nil {
				return err
			}
			args = append(args, o)
		}
		if rawVirtual {
			all := append([]ir.Operand{ir.Var(recv)}, args...)
			fp.b.Emit(&ir.Instr{Op: ir.OpCallVirtual, Dst: dst, Callee: m, Args: all})
		} else {
			fp.b.CallVirtual(dst, m, recv, args...)
		}
		return nil
	}
	var args []ir.Operand
	for _, a := range argSrcs {
		o, err := fp.operand(a)
		if err != nil {
			return err
		}
		args = append(args, o)
	}
	fp.b.CallStatic(dst, m, args...)
	return nil
}
