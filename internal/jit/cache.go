// Content-addressed compilation cache.
//
// A caller that compiles the same (program, configuration, model) triple
// over and over (perfbench's per-cell caches are the only one) can serve
// the repeats from here instead of re-running the whole pass pipeline on
// an identical input. Compilation is deterministic — same input program,
// same effective configuration, same models, same output IR — so the
// triple is a perfect cache key. The cache stores the compiled
// program together with its immutable *Result (and fate ledger, when the
// compile was observed); callers re-attribute per-replay statistics from the
// shared entry instead of recompiling.
//
// Key construction (see DESIGN.md §10 for the full projection rules):
//
//   - Program: a SHA-256 over a canonical encoding of the ENTIRE pristine
//     program — classes, field layouts, method signatures and every
//     instruction of every body. Two programs with the same digest compile
//     identically under the same projection.
//   - Proj: the projection of jit.Config onto the fields that can change
//     generated code, with defaults applied ("effective" values) so configs
//     spelled differently but compiled identically share entries.
//   - Model: the execution model's VALUE. arch.Model is a flat comparable
//     struct, so two models with equal fields share entries while two that
//     share a name but differ in a field a pass consults (TrapAreaBytes,
//     say) do not; comparing pointers would split identical models.
package jit

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sync"

	"trapnull/internal/arch"
	"trapnull/internal/ir"
	"trapnull/internal/obs"
	"trapnull/internal/opt"
)

// Projection is the subset of Config that can affect the generated code.
// Every field holds the EFFECTIVE value the pipeline would use, not the raw
// Config field: defaults applied, ignored knobs normalized away. Config
// fields deliberately excluded:
//
//   - Name: a display label; never consulted by any pass.
//   - Verify: the structural verifier is read-only — it never mutates IR, it
//     can only turn a silently-corrupting compile into an error, and errors
//     are never cached. (A planted bug that produces structurally VALID but
//     wrong IR is invisible to the verifier either way.)
//   - TrapFold/TrapConvert/Phase2 raw flags: collapsed into Lowering by the
//     pipeline's precedence (Phase2 > TrapConvert > TrapFold).
//   - Phase2Model: collapsed into TrapModel (its NAME, nil → execution
//     model), and only when some lowering actually consults it. A name is
//     enough here because Phase2Model is only ever a stock model; the
//     execution model's full value is in CacheKey.Model.
//   - Speculation: collapsed into the effective conjunction with the
//     execution model's SpeculativeReads, exactly as pipeline() computes the
//     scalar-replacement model.
type Projection struct {
	Inline       bool
	InlineBudget int // effective (default applied); 0 when !Inline
	Algo         Algo
	Iterations   int // effective, ≥ 1
	OtherOpts    bool
	LightScalar  bool
	// Lowering is which trap lowering runs: "phase2", "trapconvert",
	// "trapfold" or "" (none), after the pipeline's precedence.
	Lowering string
	// TrapModel is the name of the model the lowering assumes ("" when no
	// lowering runs).
	TrapModel string
	// Speculation is the effective cfg.Speculation && model.SpeculativeReads.
	Speculation              bool
	SkipGuardCheck           bool
	InjectUnsafeSubstitution bool
}

// ProjectConfig computes cfg's projection for execution on execModel.
func ProjectConfig(cfg Config, execModel *arch.Model) Projection {
	p := Projection{
		Inline:                   cfg.Inline,
		Algo:                     cfg.Algo,
		Iterations:               cfg.Iterations,
		OtherOpts:                cfg.OtherOpts,
		LightScalar:              cfg.LightScalar,
		Speculation:              cfg.Speculation && execModel.SpeculativeReads,
		SkipGuardCheck:           cfg.SkipGuardCheck,
		InjectUnsafeSubstitution: cfg.InjectUnsafeSubstitution,
	}
	if cfg.Inline {
		p.InlineBudget = cfg.InlineBudget
		if p.InlineBudget == 0 {
			p.InlineBudget = opt.InlineBudget
		}
	}
	if p.Iterations < 1 {
		p.Iterations = 1
	}
	switch {
	case cfg.Phase2:
		p.Lowering = "phase2"
	case cfg.TrapConvert:
		p.Lowering = "trapconvert"
	case cfg.TrapFold:
		p.Lowering = "trapfold"
	}
	if p.Lowering != "" {
		if cfg.Phase2Model != nil {
			p.TrapModel = cfg.Phase2Model.Name
		} else {
			p.TrapModel = execModel.Name
		}
	}
	return p
}

// CacheKey identifies one deterministic compilation. It is a comparable
// value type, usable directly as a map key.
type CacheKey struct {
	Program [sha256.Size]byte
	Proj    Projection
	Model   arch.Model // execution model, by value
	// Spec is the canonical speculation set (SpecSet.Canon); "" is the
	// conservative compilation. Including it keys speculative artifacts
	// separately from conservative ones — and from each other per distinct
	// speculation set — so a tier-2 recompile can never serve (or poison)
	// a conservative lookup.
	Spec string
	// Demote is the canonical demotion set (DemoteSet.Canon); "" is the
	// ungoverned compilation. Each governed recompile keys its own artifact,
	// so the governor's degradation ladder never aliases cache entries.
	Demote string
}

// ID renders the key as a deterministic, human-readable string that names
// the model rather than printing its fields. The fault-injection harness keys
// its pass-fault decisions on it, so the same compilation draws the same
// faults in every sweep cell that performs it.
func (k CacheKey) ID() string {
	return fmt.Sprintf("%x|%s|%+v|spec=%s|demote=%s",
		k.Program[:8], k.Model.Name, k.Proj, k.Spec, k.Demote)
}

// Key builds the cache key for compiling prog under cfg on execModel. The
// program must be in its PRISTINE (pre-compilation) state: hashing an
// already-optimized program would key the output by itself.
func Key(prog *ir.Program, cfg Config, execModel *arch.Model) CacheKey {
	return CacheKey{Program: HashProgram(prog), Proj: ProjectConfig(cfg, execModel), Model: *execModel}
}

// HashProgram computes the canonical content digest of a program. The
// encoding covers everything compilation can observe: class layouts, method
// order and signatures, local kinds, block structure (IDs, try regions) and
// every instruction field, with strings length-prefixed and block references
// by ID. Host pointers never enter the hash, so structurally identical
// programs digest identically across processes.
func HashProgram(p *ir.Program) [sha256.Size]byte {
	h := sha256.New()
	e := &hashEnc{h: h}
	e.str(p.Name)
	e.i64(int64(len(p.Classes)))
	for _, c := range p.Classes {
		e.str(c.Name)
		e.i64(int64(c.ID))
		e.i64(int64(c.SizeBytes))
		e.i64(int64(len(c.Fields)))
		for _, f := range c.Fields {
			e.str(f.Name)
			e.u8(uint8(f.Kind))
			e.i64(int64(f.Offset))
		}
		// Virtual slots by qualified name; the bodies hash below under the
		// program-level method list.
		e.i64(int64(len(c.Methods)))
		for _, m := range c.Methods {
			e.str(m.QualifiedName())
		}
	}
	e.i64(int64(len(p.Methods)))
	for _, m := range p.Methods {
		e.str(m.QualifiedName())
		e.bool(m.Virtual)
		e.u8(uint8(m.Intrinsic))
		if m.Fn == nil {
			e.bool(false)
			continue
		}
		e.bool(true)
		e.fn(m.Fn)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// hashEnc streams the canonical encoding into a hash with a small reused
// scratch buffer.
type hashEnc struct {
	h   hash.Hash
	buf [8]byte
}

func (e *hashEnc) u8(v uint8) {
	e.buf[0] = v
	e.h.Write(e.buf[:1])
}

func (e *hashEnc) i64(v int64) {
	binary.LittleEndian.PutUint64(e.buf[:], uint64(v))
	e.h.Write(e.buf[:8])
}

func (e *hashEnc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *hashEnc) str(s string) {
	e.i64(int64(len(s)))
	e.h.Write([]byte(s))
}

func (e *hashEnc) fn(f *ir.Func) {
	e.str(f.Name)
	e.i64(int64(f.NumParams))
	e.bool(f.IsInstance)
	e.bool(f.HasResult)
	e.u8(uint8(f.ResultKind))
	e.i64(int64(len(f.Locals)))
	for _, l := range f.Locals {
		e.str(l.Name)
		e.u8(uint8(l.Kind))
	}
	e.i64(int64(len(f.Regions)))
	for _, r := range f.Regions {
		e.i64(int64(r.ID))
		e.i64(int64(r.Handler.ID))
		e.i64(int64(r.ExcVar))
	}
	entry := int64(-1)
	if f.Entry != nil {
		entry = int64(f.Entry.ID)
	}
	e.i64(entry)
	e.i64(int64(len(f.Blocks)))
	for _, b := range f.Blocks {
		e.i64(int64(b.ID))
		e.str(b.Name)
		e.i64(int64(b.Try))
		e.i64(int64(len(b.Instrs)))
		for _, in := range b.Instrs {
			e.instr(in)
		}
	}
}

func (e *hashEnc) instr(in *ir.Instr) {
	e.u8(uint8(in.Op))
	e.i64(int64(in.Dst))
	e.i64(int64(len(in.Args)))
	for _, a := range in.Args {
		e.u8(uint8(a.Kind))
		e.i64(int64(a.Var))
		e.i64(a.Int)
		e.i64(int64(math.Float64bits(a.Float)))
	}
	if in.Field != nil {
		e.bool(true)
		e.str(in.Field.String())
		e.i64(int64(in.Field.Offset))
	} else {
		e.bool(false)
	}
	if in.Class != nil {
		e.bool(true)
		e.str(in.Class.Name)
	} else {
		e.bool(false)
	}
	if in.Callee != nil {
		e.bool(true)
		e.str(in.Callee.QualifiedName())
	} else {
		e.bool(false)
	}
	e.u8(uint8(in.Cond))
	e.u8(uint8(in.Fn))
	e.i64(int64(len(in.Targets)))
	for _, t := range in.Targets {
		e.i64(int64(t.ID))
	}
	e.u8(uint8(in.Reason))
	e.bool(in.Explicit)
	e.bool(in.ExcSite)
	e.i64(int64(in.ExcVar))
	e.bool(in.Speculated)
	e.i64(int64(in.SpecGuard))
}

// CacheEntry is one cached compilation. Entries are shared between every
// caller that hits the key, so ALL fields are immutable after insertion:
// callers must not mutate the program's IR (execution never does — machines
// keep their own decoded tables) and must treat Result and Remarks as
// read-only. TestCompileCacheEntryImmutable deep-freezes an entry and
// verifies two consumers leave it untouched.
type CacheEntry struct {
	// Program is the COMPILED program (bodies optimized under the key's
	// projection).
	Program *ir.Program
	// Result is the compile result; per-replay statistics are re-derived
	// from it, never accumulated into it.
	Result *Result
	// Remarks is the fate ledger of the observed compile, or nil when the
	// compile ran unobserved. Callers re-attribute fates from it so a cached
	// compile reports the same histogram as a fresh one.
	Remarks *obs.Remarks
}

// CacheStats counts cache traffic; Hits+Misses == Lookups. A serial caller
// of a deterministic workload sees the same split on every run.
type CacheStats struct {
	Lookups int64
	Hits    int64
	Misses  int64
}

// DefaultCacheCapacity bounds a cache. The bound keeps open-ended callers
// (fuzz loops feeding one cache forever) from growing it without limit.
const DefaultCacheCapacity = 256

// Cache maps a compilation's key to its artifact. It is safe for concurrent
// use: the mutex guards the map and the counters, never a compile, so two
// callers that miss one key at once both compile it and, compilation being
// deterministic, get equal artifacts. Once the map holds cap entries a miss
// compiles without storing: stored keys keep hitting and nothing is evicted.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[CacheKey]*CacheEntry
	st      CacheStats
}

// NewCache returns a cache bounded to capacity entries (0 → default).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{cap: capacity, entries: make(map[CacheKey]*CacheEntry)}
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// Len returns the number of stored entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// GetOrCompile returns the entry stored under key, or runs compile on the
// calling goroutine and stores its entry while the bound allows. The
// boolean reports whether this call was served from the cache. needRemarks
// demands an entry carrying a fate ledger: a stored entry without one
// counts as a miss, and the recompile replaces it. Errors are returned but
// never stored, so a later lookup retries.
func (c *Cache) GetOrCompile(key CacheKey, needRemarks bool, compile func() (*CacheEntry, error)) (*CacheEntry, bool, error) {
	c.mu.Lock()
	c.st.Lookups++
	if e, ok := c.entries[key]; ok && (!needRemarks || e.Remarks != nil) {
		c.st.Hits++
		c.mu.Unlock()
		return e, true, nil
	}
	c.st.Misses++
	c.mu.Unlock()

	entry, err := compile()
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	// Replace only an entry without a ledger, so a concurrent unobserved
	// miss never undoes an upgrade.
	if old, ok := c.entries[key]; (ok && old.Remarks == nil) || (!ok && len(c.entries) < c.cap) {
		c.entries[key] = entry
	}
	c.mu.Unlock()
	return entry, false, nil
}

// Compile is the one cached compile path: it keys prog under (cfg,
// execModel, opts.Spec, opts.Demote) with KeyDemote, compiles prog in place
// on a miss, and returns the entry and whether it was a hit. A fate ledger is
// demanded, and stored on a miss, when opts.Observer carries Remarks.
func (c *Cache) Compile(prog *ir.Program, cfg Config, execModel *arch.Model, opts CompileOptions) (*CacheEntry, bool, error) {
	var rem *obs.Remarks
	if opts.Observer != nil {
		rem = opts.Observer.Remarks
	}
	return c.GetOrCompile(KeyDemote(prog, cfg, execModel, opts.Spec, opts.Demote), rem != nil, func() (*CacheEntry, error) {
		res, err := CompileProgramWith(prog, cfg, execModel, opts)
		if err != nil {
			return nil, err
		}
		return &CacheEntry{Program: prog, Result: res, Remarks: rem}, nil
	})
}
