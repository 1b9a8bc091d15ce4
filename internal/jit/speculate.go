// Per-check recompile input: site sets, and tier-2 speculation.
//
// Both adaptive policies of the machine (internal/machine) move checks along
// the implicit/explicit line by recompiling the whole program under a
// SiteSet — method qualified name → per-method check ordinals — applied
// AFTER the normal pass list has run. The tier controller hands over a
// speculation set (SpecSet): ordinals of surviving checks in
// ir.Func.NullChecks order, each flipped into a speculation guard
// (Instr.SpecGuard = ordinal+1). The trap-storm governor hands over a demote
// set (DemoteSet, see demote.go): trap-site ordinals forced back to explicit
// checks.
//
// Speculation is deliberately a flag flip and nothing more: block
// structure, instruction order and every other field are untouched, so the
// speculative artifact is block-for-block aligned with the conservative one.
// That alignment is what makes on-stack replacement (tier promotion) and
// trap-triggered deoptimization exact state transfers, and it is also why
// ordinals computed on the conservative body apply cleanly to the speculative
// recompile of the same pristine program: compilation is deterministic, so
// both bodies are identical before the flags are set.
package jit

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
)

// SiteSet maps a method's qualified name to per-method check ordinals. A nil
// or empty set selects nothing: the unmodified compilation.
type SiteSet map[string][]int

// SpecSet is a SiteSet of check ordinals (Func.NullChecks order) to
// speculate.
type SpecSet = SiteSet

// Canon renders the set in its canonical form: methods sorted by name,
// ordinals sorted ascending and deduplicated, e.g. "A.main:0,2;B.get:1".
// The empty string is the unmodified compilation. The canonical form enters
// the cache key, so artifacts of any two distinct sets — and of a set and
// the unmodified compilation — can never collide.
func (s SiteSet) Canon() string {
	names := make([]string, 0, len(s))
	for name, ords := range s {
		if len(ords) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for i, name := range names {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(name)
		ords := slices.Clone(s[name])
		slices.Sort(ords)
		sep := byte(':')
		for _, o := range slices.Compact(ords) {
			b.WriteByte(sep)
			sep = ','
			b.WriteString(strconv.Itoa(o))
		}
	}
	return b.String()
}

// apply runs f on the body of every method the set selects ordinals of,
// with those ordinals as a membership set, and sums what f applied.
func (s SiteSet) apply(prog *ir.Program, f func(fn *ir.Func, want map[int]bool) int) int {
	applied := 0
	for _, m := range prog.Methods {
		if m.Fn == nil {
			continue
		}
		ords := s[m.QualifiedName()]
		if len(ords) == 0 {
			continue
		}
		want := make(map[int]bool, len(ords))
		for _, o := range ords {
			want[o] = true
		}
		applied += f(m.Fn, want)
	}
	return applied
}

// KeySpec builds the cache key for compiling prog under cfg on execModel with
// the given speculation set. Key(prog, cfg, model) is KeySpec with a nil set.
func KeySpec(prog *ir.Program, cfg Config, execModel *arch.Model, spec SpecSet) CacheKey {
	return KeyDemote(prog, cfg, execModel, spec, nil)
}

// applySpeculation flips the selected surviving checks into speculation
// guards and returns how many were applied. Ordinals outside the method's
// check list are ignored (they cannot arise from a deterministic profile of
// the same compiled body, but a stale mask must not corrupt a compile).
func applySpeculation(prog *ir.Program, spec SpecSet) int {
	return spec.apply(prog, func(fn *ir.Func, want map[int]bool) int {
		applied := 0
		for ord, in := range fn.NullChecks() {
			if want[ord] {
				in.SpecGuard = int32(ord) + 1
				applied++
			}
		}
		return applied
	})
}
