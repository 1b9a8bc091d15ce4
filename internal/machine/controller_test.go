package machine

import (
	"slices"
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/jit"
	"trapnull/internal/obs"
	"trapnull/internal/rt"
	"trapnull/internal/workloads"
)

// Tests of the adaptive controller that tiering and the trap-storm governor
// share: one per-method record, one recompile-and-adopt path, one site-set
// type.

// controlled compiles w under cfg for ia32-win and returns a machine on the
// result, the entry body, and a Recompiler that recompiles w under
// opts(set) — the shape the bench harness wires into EnableTiering and
// EnableGovernor.
func controlled(t *testing.T, w *workloads.Workload, cfg jit.Config, opts func(map[string][]int) jit.CompileOptions) (*Machine, *ir.Func, Recompiler) {
	t.Helper()
	model := arch.IA32Win()
	compile := func(set map[string][]int) (*ir.Program, error) {
		p, _ := w.Build()
		_, err := jit.CompileProgramWith(p, cfg, model, opts(set))
		return p, err
	}
	prog, err := compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, entry := w.Build()
	em := prog.MethodByName(entry.QualifiedName())
	if em == nil || em.Fn == nil {
		t.Fatalf("compiled %s lacks its entry method", w.Name)
	}
	return New(model, prog), em.Fn, compile
}

// invoke calls the entry reps times, checking every result against the
// workload's reference checksum.
func invoke(t *testing.T, m *Machine, w *workloads.Workload, fn *ir.Func, reps int) {
	t.Helper()
	for rep := 0; rep < reps; rep++ {
		out, err := m.Call(fn, w.TestN)
		if err != nil {
			t.Fatalf("invocation %d: %v", rep+1, err)
		}
		if want := w.Ref(w.TestN); out.Value != want {
			t.Fatalf("invocation %d: checksum %d, want %d", rep+1, out.Value, want)
		}
	}
}

// record returns the controller's record of the named method.
func record(t *testing.T, m *Machine, name string) *methodTier {
	t.Helper()
	mt := m.tier.byName()[name]
	if mt == nil {
		t.Fatalf("no tier record for %s", name)
	}
	return mt
}

// quickTiers and quickGovernor scale the default thresholds down so TestN
// sizes cross them within a few invocations.
var (
	quickTiers    = TierPolicy{T1Blocks: 128, T2Blocks: 128, MinCheckExecs: 16}
	quickGovernor = GovernorPolicy{MinSiteExecs: 64, NullPerMille: 5, RecompileBudget: 3, BackoffTraps: 8}
)

func specOpts(set map[string][]int) jit.CompileOptions   { return jit.CompileOptions{Spec: set} }
func demoteOpts(set map[string][]int) jit.CompileOptions { return jit.CompileOptions{Demote: set} }

// boundCell returns the counter cell m's prepared table of fn binds to in.
func boundCell(t *testing.T, m *Machine, fn *ir.Func, in *ir.Instr) *obs.CheckCounts {
	t.Helper()
	pins := m.prepare(fn).pf.ins
	for i := range pins {
		if pins[i].in == in {
			return pins[i].chk
		}
	}
	t.Fatalf("%s has no prepared %s", fn.Name, in)
	return nil
}

// TestAdoptAliasesCounters pins the one adopt path's two uses. A tier-2
// generation's checks bind, ordinal by ordinal, to the same speculation
// cells of the method's record as the conservative artifact's checks. A
// governed generation replaces the conservative artifact, and its
// trap-site-tagged instructions bind to the same canonical per-site cells
// the original generation's sites used.
func TestAdoptAliasesCounters(t *testing.T) {
	t.Run("tier2", func(t *testing.T) {
		w := workloads.BigOffsetWalk()
		m, fn, compile := controlled(t, w, jit.ConfigPhase1Phase2(), specOpts)
		m.EnableTiering(quickTiers, compile)
		invoke(t, m, w, fn, 4)
		mt := record(t, m, "BigOffsetWalk.main")
		if mt.tier != tierSpec || mt.fn2 == nil {
			t.Fatalf("BigOffsetWalk.main never reached tier 2 (tier %d)", mt.tier)
		}
		if m.tier.byFn[mt.fn2] != mt {
			t.Error("speculative body does not dispatch through its method's record")
		}
		checks0, checks2 := mt.fn0.NullChecks(), mt.fn2.NullChecks()
		if len(checks0) == 0 || len(checks0) != len(checks2) {
			t.Fatalf("check lists not aligned: %d vs %d", len(checks0), len(checks2))
		}
		for ord := range checks0 {
			c0, c2 := boundCell(t, m, mt.fn0, checks0[ord]), boundCell(t, m, mt.fn2, checks2[ord])
			if c0 == nil || c0 != mt.checks[ord] || c2 != c0 {
				t.Errorf("check %d: conservative cell %p and speculative cell %p are not the method's cell %p", ord, c0, c2, mt.checks[ord])
			}
		}
	})

	t.Run("governed", func(t *testing.T) {
		w := workloads.TrapStorm()
		m, fn, compile := controlled(t, w, jit.ConfigPhase1Phase2(), demoteOpts)
		m.EnableGovernor(quickGovernor, compile)
		mt := record(t, m, "TrapStorm.main")
		orig := mt.fn0
		invoke(t, m, w, fn, 1)
		sites := make(map[int]bool)
		for _, b := range orig.Blocks {
			for _, in := range b.Instrs {
				if in.TrapSite != 0 {
					sites[int(in.TrapSite)-1] = true
					if c := boundCell(t, m, orig, in); c == nil || c != mt.cells[int(in.TrapSite)-1] {
						t.Errorf("original site %d is not bound to its canonical cell", in.TrapSite-1)
					}
				}
			}
		}
		if len(sites) == 0 {
			t.Fatal("TrapStorm.main has no trap sites")
		}
		invoke(t, m, w, fn, 2)
		if m.GovernorReport().Recompiles == 0 || mt.fn0 == orig {
			t.Fatal("governor never adopted a demoted generation")
		}
		if m.tier.byFn[mt.fn0] != mt {
			t.Error("governed body does not dispatch through its method's record")
		}
		demoted := 0
		for _, b := range mt.fn0.Blocks {
			for _, in := range b.Instrs {
				if in.TrapSite == 0 {
					continue
				}
				ord := int(in.TrapSite) - 1
				if !sites[ord] {
					t.Errorf("governed generation grew unknown site %d", ord)
				}
				if c := boundCell(t, m, mt.fn0, in); c == nil || c != mt.cells[ord] {
					t.Errorf("governed site %d is not bound to the canonical cell", ord)
				}
				if in.Op == ir.OpNullCheck {
					demoted++
				}
			}
		}
		if demoted != len(mt.demote) {
			t.Errorf("%d demoted checks in the adopted body, demote set %v", demoted, mt.demote)
		}
	})
}

// TestResetPreparedKeepsGovernorDropsSpeculation pins which half of the
// per-method record survives ResetPrepared. The governor's demote set, pin
// and site cells carry over (demotion is monotone), so the governor report
// is unchanged; speculation — rung, speculative artifact, blacklist,
// attempts — is dropped, and every method restarts at tier 0.
func TestResetPreparedKeepsGovernorDropsSpeculation(t *testing.T) {
	t.Run("governor", func(t *testing.T) {
		w := workloads.TrapStorm()
		m, fn, compile := controlled(t, w, jit.ConfigPhase1Phase2(), demoteOpts)
		pinFirst := quickGovernor
		pinFirst.RecompileBudget = 1 // the first recompile pins
		m.EnableGovernor(pinFirst, compile)
		invoke(t, m, w, fn, 2)
		before := m.GovernorReport()
		old := record(t, m, "TrapStorm.main")
		if !old.pinned || len(old.demote) == 0 {
			t.Fatalf("TrapStorm.main not pinned (pinned=%v demote=%v)", old.pinned, old.demote)
		}

		m.ResetPrepared()
		mt := record(t, m, "TrapStorm.main")
		if mt == old {
			t.Fatal("ResetPrepared kept the old record")
		}
		if !mt.pinned || !slices.Equal(mt.demote, old.demote) || mt.recompiles != old.recompiles {
			t.Errorf("governor state lost: pinned=%v demote=%v recompiles=%d, want true %v %d",
				mt.pinned, mt.demote, mt.recompiles, old.demote, old.recompiles)
		}
		for ord, c := range old.cells {
			if mt.cells[ord] != c {
				t.Errorf("site %d: canonical cell replaced", ord)
			}
		}
		after := m.GovernorReport()
		if after.Demotions != before.Demotions || after.SiteExecs != before.SiteExecs ||
			!slices.Equal(after.Pinned, before.Pinned) {
			t.Errorf("governor report changed across reset: %+v -> %+v", before, after)
		}
		invoke(t, m, w, fn, 1)
		if got := m.GovernorReport().Recompiles; got != before.Recompiles {
			t.Errorf("pinned method recompiled after reset: %d -> %d", before.Recompiles, got)
		}
	})

	t.Run("speculation", func(t *testing.T) {
		w := workloads.LateNullStorm()
		m, fn, compile := controlled(t, w, jit.ConfigPhase1Phase2(), specOpts)
		m.EnableTiering(quickTiers, compile)
		invoke(t, m, w, fn, 3)
		if len(m.Blacklisted()) == 0 {
			t.Fatal("LateNullStorm never deoptimized")
		}
		old := record(t, m, "LateNullStorm.main")
		if old.specAttempts == 0 {
			t.Fatal("no speculative recompile recorded")
		}

		m.ResetPrepared()
		if bl := m.Blacklisted(); len(bl) != 0 {
			t.Errorf("blacklist survived reset: %v", bl)
		}
		for _, mt := range m.tier.order {
			if mt.tier != tierInterp || mt.fn2 != nil || mt.spec != nil || mt.specAttempts != 0 || mt.exhausted {
				t.Errorf("%s: speculation state survived reset (tier %d, attempts %d)", mt.name, mt.tier, mt.specAttempts)
			}
			if mt.fn0 != m.Prog.MethodByName(mt.name).Fn {
				t.Errorf("%s: conservative artifact is not the program's body", mt.name)
			}
		}
		invoke(t, m, w, fn, 1)
	})
}

// decisionFn builds f(a) for the decision-step test: lead adds, then the
// decision point on a (a speculation guard, or an implicit getfield marked
// as trap site 1), then tail adds, then return. The decision point is the
// (lead+1)-th instruction the call executes.
func decisionFn(c *ir.Class, guard bool, lead, tail int) *ir.Func {
	b := ir.NewFunc("f", false)
	a := b.Param("a", ir.KindRef)
	b.Result(ir.KindInt)
	b.Block("entry")
	x := b.Temp(ir.KindInt)
	adds := func(n int) {
		for k := 0; k < n; k++ {
			b.Binop(ir.OpAdd, x, ir.Var(x), ir.ConstInt(1))
		}
	}
	adds(lead)
	if guard {
		b.NullCheck(a, ir.ReasonField).SpecGuard = 1
	} else {
		b.Emit(&ir.Instr{Op: ir.OpGetField, Dst: b.Temp(ir.KindInt), Field: c.FieldByName("f"),
			Args: []ir.Operand{ir.Var(a)}, ExcSite: true, ExcVar: a, TrapSite: 1})
	}
	adds(tail)
	b.Return(ir.Var(x))
	return b.Finish()
}

// TestDecisionStepIsReferenceCount pins the flight recorder's step clock at
// the reference count: a fired speculation guard's deopt and a governed
// trap's demotion are logged at the step of the instruction that fired,
// however many instructions follow it in its block (the closure engine
// pre-charges them with the stretch) and on either engine. With the step
// limit at the firing instruction, the closure engine hands the block to the
// interpreter, which then runs the speculative body and deoptimizes itself.
func TestDecisionStepIsReferenceCount(t *testing.T) {
	const lead = 2
	for _, tail := range []int{0, 1, 5} {
		for _, guard := range []bool{true, false} {
			for _, rung := range []tierLevel{tierInterp, tierClosureFinal} {
				if guard && rung == tierInterp {
					continue // speculative bodies are dispatched to the closure engine
				}
				for _, limit := range []int64{0, lead + 1} {
					p, c := prog()
					body := func() *ir.Func { return decisionFn(c, guard, lead, tail) }
					mth := p.AddMethod(nil, "f", body(), false)
					m := New(arch.IA32Win(), p)
					m.Recorder = obs.NewRecorder()
					if limit > 0 {
						m.MaxSteps = limit
					}
					kind := "deopt"
					if guard {
						m.EnableTiering(TierPolicy{}, nil)
						mt := m.tier.stateOf(mth.Fn)
						spec := body()
						mt.tier, mt.fn2, mt.cf2 = tierSpec, spec, m.compiled(spec)
						m.tier.byFn[spec] = mt
					} else {
						kind = "demote"
						m.EnableGovernor(GovernorPolicy{RecompileBudget: 2}, func(map[string][]int) (*ir.Program, error) {
							q, _ := prog()
							q.AddMethod(nil, "f", body(), false)
							return q, nil
						})
						m.tier.stateOf(mth.Fn).tier = rung
					}
					out, err := m.Call(mth.Fn, 0)
					if err != nil || out.Exc != rt.ExcNullPointer {
						t.Fatalf("tail %d guard %v: out=%+v err=%v, want an NPE", tail, guard, out, err)
					}
					var got []int64
					for _, ev := range m.Recorder.Events() {
						if ev.Kind == kind {
							got = append(got, ev.Step)
						}
					}
					if len(got) != 1 || got[0] != lead+1 {
						t.Errorf("tail %d guard %v rung %d limit %d: %s logged at steps %v, want [%d]", tail, guard, rung, limit, kind, got, lead+1)
					}
				}
			}
		}
	}
}

// TestAdoptCarriesTierZeroCountdown: EnableTiering with a T1Blocks past
// the first invocation, then EnableGovernor. Early in invocation 1 the
// governor adopts a demoted generation of TrapStorm.main, which is still
// at tier 0. The frame that trapped finishes invocation 1 on the replaced
// body, and invocation 2 runs the adopted one; the block entries of both
// count toward the one tier-1 threshold, so main is promoted once, in
// invocation 2. The hand-over moves the rest of that invocation onto the
// adopted generation's code, so the step of promote-t1 and the run's
// cycles pin where the count stood.
func TestAdoptCarriesTierZeroCountdown(t *testing.T) {
	w := workloads.TrapStorm()
	m, fn, compile := controlled(t, w, jit.ConfigPhase1Phase2(), demoteOpts)
	m.Recorder = obs.NewRecorder()
	m.EnableTiering(TierPolicy{T1Blocks: 4000}, nil)
	m.EnableGovernor(quickGovernor, compile)
	var last Outcome
	for rep := 0; rep < 3; rep++ {
		out, err := m.Call(fn, w.TestN)
		if err != nil {
			t.Fatalf("invocation %d: %v", rep+1, err)
		}
		if want := w.Ref(w.TestN); out.Value != want {
			t.Fatalf("invocation %d: checksum %d, want %d", rep+1, out.Value, want)
		}
		last = out
	}
	type event struct {
		inv  int
		step int64
		kind string
	}
	var got []event
	for _, ev := range m.Recorder.Events() {
		got = append(got, event{ev.Invocation, ev.Step, ev.Kind})
	}
	want := []event{{1, 1285, "demote"}, {1, 1285, "backoff-armed"}, {2, 15737, "promote-t1"}}
	if !slices.Equal(got, want) {
		t.Errorf("timeline %v, want %v", got, want)
	}
	if last != (Outcome{Value: 2309}) || m.Cycles != 731474 {
		t.Errorf("last outcome %+v after %d cycles, want {Value:2309} after 731474", last, m.Cycles)
	}
	if rep := m.TierReport(); rep.OSREntries != 1 || m.GovernorReport().Recompiles != 1 {
		t.Errorf("%d OSR entries and %d governed recompiles, want 1 and 1", rep.OSREntries, m.GovernorReport().Recompiles)
	}
}

// TestResetPreparedKeepsSpeculationCounts: ResetPrepared restarts every
// method at tier 0, but a method whose body did not change keeps the check
// counts it speculates from. MinCheckExecs is set one past the explicit
// checks BigOffsetWalk executes in a whole invocation, so one invocation's
// counts never justify speculation: a fresh machine does not speculate in
// its first invocation, and a reset machine speculates in its second only
// because the first invocation's counts carried over.
func TestResetPreparedKeepsSpeculationCounts(t *testing.T) {
	w := workloads.BigOffsetWalk()
	m, fn, _ := controlled(t, w, jit.ConfigPhase1Phase2(), specOpts)
	invoke(t, m, w, fn, 1)
	policy := TierPolicy{T1Blocks: 16, T2Blocks: 16, MinCheckExecs: m.Stats.ExplicitChecks + 1}

	promotions := func(m *Machine) []int {
		var invs []int
		for _, ev := range m.Recorder.Events() {
			if ev.Kind == "promote-t2" {
				invs = append(invs, ev.Invocation)
			}
		}
		return invs
	}
	tiered := func() (*Machine, *ir.Func) {
		m, fn, compile := controlled(t, w, jit.ConfigPhase1Phase2(), specOpts)
		m.Recorder = obs.NewRecorder()
		m.EnableTiering(policy, compile)
		return m, fn
	}

	fresh, fn := tiered()
	invoke(t, fresh, w, fn, 1)
	if got := promotions(fresh); len(got) != 0 {
		t.Fatalf("one invocation's counts speculated (promote-t2 in invocations %v)", got)
	}

	reset, fn := tiered()
	invoke(t, reset, w, fn, 1)
	reset.ResetPrepared()
	invoke(t, reset, w, fn, 1)
	if got := promotions(reset); !slices.Equal(got, []int{2}) {
		t.Errorf("promote-t2 in invocations %v, want [2]: the counts did not survive ResetPrepared", got)
	}
}
