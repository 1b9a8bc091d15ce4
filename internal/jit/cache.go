// Content-addressed compilation cache.
//
// A triage session compiles the same (program, configuration, model) triple
// over and over: every bisection replay, every delta-debug oracle call
// re-runs the whole pass pipeline on an identical input, and an adaptive
// sweep cell (bench.Run) recompiles for site sets it may have seen before.
// Compilation is deterministic — same
// input program, same effective configuration, same models, same output IR —
// so the triple is a perfect cache key. The cache stores the compiled
// program together with its immutable *Result (and fate ledger, when the
// compile was observed); callers re-attribute per-cell statistics from the
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
	"sort"
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
// its schedule decisions on it, so the same compilation draws the same faults
// regardless of which sweep cell reaches it first.
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
// cell that hits the key, so ALL fields are immutable after insertion:
// callers must not mutate the program's IR (execution never does — machines
// keep their own decoded tables) and must treat Result and Remarks as
// read-only. The bench tests deep-freeze an entry and verify a sweep leaves
// it untouched.
type CacheEntry struct {
	// Program is the COMPILED program (bodies optimized under the key's
	// projection).
	Program *ir.Program
	// Result is the compile result; per-cell statistics are re-derived from
	// it, never accumulated into it.
	Result *Result
	// Remarks is the fate ledger of the observed compile, or nil when the
	// compile ran unobserved. Cells re-attribute fates from it so a cached
	// compile reports the same histogram as a fresh one.
	Remarks *obs.Remarks
}

// CacheStats counts cache traffic. With single-flight coalescing the split
// is deterministic for a deterministic workload: misses = distinct keys
// compiled, hits = everything else, regardless of worker interleaving.
type CacheStats struct {
	Lookups   int64
	Hits      int64
	Misses    int64
	Evictions int64
	// InjectedFaults counts cache-slot faults (evictions/corruptions) fired
	// by an attached FaultPolicy. Every fired fault is repaired transparently
	// by recompiling, so it perturbs traffic counters but never outcomes.
	InjectedFaults int64
	// SingleFlightWaits counts lookups that blocked on another caller's
	// in-flight compile. Unlike the hit/miss split (deterministic under
	// single-flight), this depends on worker interleaving — it feeds the
	// VOLATILE metrics only, never a deterministic artifact.
	SingleFlightWaits int64
}

// CacheEvent is one aggregated cache lifecycle event for the telemetry
// timeline: how many times Kind happened to Key. Kinds: "evict" (capacity
// eviction), "fault-evict" and "fault-corrupt" (armed chaos faults firing).
type CacheEvent struct {
	Key   string `json:"key"`
	Kind  string `json:"kind"`
	Count int64  `json:"count"`
}

// CacheFaultPolicy injects deterministic cache-slot faults for chaos testing.
// Decisions must be pure functions of the key ID (CacheKey.ID): the policy is
// consulted when an entry completes, arming at most one fault per key for the
// cache's lifetime. An armed fault fires on the next lookup that would have
// hit the entry: an eviction silently drops the slot, a corruption models a
// poisoned artifact that integrity-checking detects and discards. Both repair
// the same way — the victim recompiles — so a faulted run reaches the exact
// outcomes of a clean one; only CacheStats traffic differs.
type CacheFaultPolicy struct {
	Evict   func(keyID string) bool
	Corrupt func(keyID string) bool
}

// SetFaultPolicy attaches (or clears, with nil) the fault policy.
func (c *Cache) SetFaultPolicy(p *CacheFaultPolicy) {
	c.mu.Lock()
	c.fault = p
	c.mu.Unlock()
}

// DefaultCacheCapacity bounds a sweep-scoped cache. A full quick sweep
// produces at most configs × workloads distinct keys per matrix (≤ 42), so
// the default never evicts in practice; the bound is a safety valve for
// open-ended callers (fuzz loops feeding one cache forever).
const DefaultCacheCapacity = 256

// Cache is a bounded, concurrency-safe, single-flight compilation cache.
// Concurrent lookups of the same key coalesce: one caller compiles, the
// rest wait and count as hits. Eviction is clock/second-chance over
// completed entries (in-flight compilations are never evicted), driven
// purely by insertion and access order.
type Cache struct {
	mu    sync.Mutex
	cap   int
	slots map[CacheKey]*cacheSlot
	// Eviction ring over completed keys.
	ring []CacheKey
	ref  []bool
	hand int
	st   CacheStats
	// Chaos testing: fault is the active policy (usually nil); faulted
	// remembers keys whose armed fault already fired, enforcing
	// at-most-once per key.
	fault   *CacheFaultPolicy
	faulted map[CacheKey]bool
	// evlog aggregates lifecycle events (evictions, fired faults) per
	// (key ID, kind) for EventLog. Bounded by distinct keys × kinds.
	evlog map[CacheEvent]int64
}

// noteEvent aggregates one lifecycle event. Caller holds c.mu.
func (c *Cache) noteEvent(key CacheKey, kind string) {
	if c.evlog == nil {
		c.evlog = make(map[CacheEvent]int64)
	}
	c.evlog[CacheEvent{Key: key.ID(), Kind: kind}]++
}

// EventLog returns the aggregated lifecycle events sorted by (key, kind) —
// a deterministic digest for the telemetry timeline: which entries were
// evicted or chaos-faulted, and how often.
func (c *Cache) EventLog() []CacheEvent {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]CacheEvent, 0, len(c.evlog))
	for ev, n := range c.evlog {
		ev.Count = n
		out = append(out, ev)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

type cacheSlot struct {
	ready chan struct{} // closed when entry/err are set
	entry *CacheEntry
	err   error
	// armedFault is non-zero when the fault policy armed an injected fault
	// on this completed slot (1 = evict, 2 = corrupt). It fires on the next
	// lookup that would hit the slot.
	armedFault uint8
}

// NewCache returns a cache bounded to capacity entries (0 → default).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{cap: capacity, slots: make(map[CacheKey]*cacheSlot)}
}

// Stats returns a snapshot of the traffic counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// Len returns the number of completed entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ring)
}

// GetOrCompile returns the entry for key, invoking compile exactly once per
// distinct key (single flight) on the calling goroutine. The boolean
// reports whether this call was served from cache (or by waiting on another
// caller's in-flight compile — both avoid compiling here). needRemarks
// demands an entry carrying a fate ledger: a hit whose entry lacks one is
// upgraded by recompiling (counted as a miss). Errors are returned to every
// coalesced waiter but never cached — the slot is removed so a later lookup
// retries.
func (c *Cache) GetOrCompile(key CacheKey, needRemarks bool, compile func() (*CacheEntry, error)) (*CacheEntry, bool, error) {
	c.mu.Lock()
	c.st.Lookups++
	if s, ok := c.slots[key]; ok {
		select {
		case <-s.ready:
		default:
			// Another caller's compile is in flight; we are about to block on
			// it. Interleaving-dependent, so this feeds volatile metrics only.
			c.st.SingleFlightWaits++
		}
		c.mu.Unlock()
		<-s.ready
		c.mu.Lock()
		if s.err != nil {
			// The flight failed; we coalesced onto it, so we share its error
			// rather than recompiling (bench error cells stay deterministic
			// under any worker count).
			c.st.Hits++
			c.mu.Unlock()
			return nil, false, s.err
		}
		if s.armedFault != 0 {
			// An armed injected fault fires (at most once per key): the slot
			// is dropped — an eviction loses it outright, a corruption is a
			// poisoned artifact detected and discarded — and this lookup
			// repairs it by recompiling below. Outcomes are unaffected.
			c.st.InjectedFaults++
			if s.armedFault == 1 {
				c.noteEvent(key, "fault-evict")
			} else {
				c.noteEvent(key, "fault-corrupt")
			}
			if c.faulted == nil {
				c.faulted = make(map[CacheKey]bool)
			}
			c.faulted[key] = true
		} else if !needRemarks || s.entry.Remarks != nil {
			c.st.Hits++
			c.touch(key)
			c.mu.Unlock()
			return s.entry, true, nil
		}
		// Entry predates an observed sweep sharing this cache (or its armed
		// fault just fired). Fall through (mutex held) and replace it by
		// recompiling; the replacement serves every caller from then on.
	}

	// Mutex held on both paths (not found, or found-but-needs-upgrade).
	// Replacing an upgraded key's slot is safe: the old slot's waiters hold
	// their own channel and drain normally.
	s := &cacheSlot{ready: make(chan struct{})}
	c.slots[key] = s
	c.st.Misses++
	c.mu.Unlock()

	entry, err := compile()
	s.entry, s.err = entry, err
	c.mu.Lock()
	if err != nil {
		// Never cache failures; only remove our own slot (an even newer
		// flight may have replaced it already).
		if c.slots[key] == s {
			delete(c.slots, key)
		}
	} else {
		c.insert(key)
		c.armFault(key, s)
	}
	c.mu.Unlock()
	close(s.ready)
	return entry, false, err
}

// Compile is the one cached compile path: it keys prog under (cfg,
// execModel, opts.Spec, opts.Demote) with KeyDemote, compiles prog in place
// on a miss, and returns the entry and whether it was a hit. A fate ledger is
// demanded, and stored on a miss, when opts.Observer carries Remarks. A nil
// cache compiles prog directly every time.
func (c *Cache) Compile(prog *ir.Program, cfg Config, execModel *arch.Model, opts CompileOptions) (*CacheEntry, bool, error) {
	var rem *obs.Remarks
	if opts.Observer != nil {
		rem = opts.Observer.Remarks
	}
	compile := func() (*CacheEntry, error) {
		res, err := CompileProgramWith(prog, cfg, execModel, opts)
		if err != nil {
			return nil, err
		}
		return &CacheEntry{Program: prog, Result: res, Remarks: rem}, nil
	}
	if c == nil {
		e, err := compile()
		return e, false, err
	}
	return c.GetOrCompile(KeyDemote(prog, cfg, execModel, opts.Spec, opts.Demote), rem != nil, compile)
}

// armFault consults the fault policy for a freshly completed entry, arming
// at most one injected fault per key per cache lifetime. Caller holds c.mu.
func (c *Cache) armFault(key CacheKey, s *cacheSlot) {
	if c.fault == nil || c.faulted[key] {
		return
	}
	id := key.ID()
	switch {
	case c.fault.Evict != nil && c.fault.Evict(id):
		s.armedFault = 1
	case c.fault.Corrupt != nil && c.fault.Corrupt(id):
		s.armedFault = 2
	}
}

// touch marks key recently used. Caller holds c.mu.
func (c *Cache) touch(key CacheKey) {
	for i, k := range c.ring {
		if k == key {
			c.ref[i] = true
			return
		}
	}
}

// insert records a completed key in the eviction ring, evicting one cold
// completed entry when the bound is reached. Caller holds c.mu.
func (c *Cache) insert(key CacheKey) {
	for _, k := range c.ring {
		if k == key {
			return // replacement of an existing completed entry
		}
	}
	if len(c.ring) < c.cap {
		c.ring = append(c.ring, key)
		c.ref = append(c.ref, false)
		return
	}
	for c.ref[c.hand] {
		c.ref[c.hand] = false
		c.hand = (c.hand + 1) % c.cap
	}
	victim := c.ring[c.hand]
	// Evict only completed slots; an in-flight slot under the same key has
	// already replaced the map entry and must not be dropped.
	if s, ok := c.slots[victim]; ok {
		select {
		case <-s.ready:
			delete(c.slots, victim)
		default:
		}
	}
	c.st.Evictions++
	c.noteEvent(victim, "evict")
	c.ring[c.hand] = key
	c.ref[c.hand] = false
	c.hand = (c.hand + 1) % c.cap
}
