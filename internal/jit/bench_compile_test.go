package jit

import (
	"testing"

	"trapnull/internal/arch"
	"trapnull/internal/machine"
	"trapnull/internal/workloads"
)

// benchConfigs is one representative configuration per family of the sweep:
// the no-opt baseline, the prior art, the paper's full pipeline, and the
// heavy-inliner comparator.
func benchConfigs() []Config {
	return []Config{
		ConfigNoNullOptNoTrap(),
		ConfigOldNullCheck(),
		ConfigPhase1Phase2(),
		ConfigHotSpotSim(),
	}
}

// BenchmarkCompileProgram measures the full compile path per workload and
// configuration family. Each run compiles a FRESH program (the bench
// harness's per-cell pattern) and the compiled artifact is checksum-verified
// once per benchmark, so a wrong-answer fast path can never produce a
// number.
func BenchmarkCompileProgram(b *testing.B) {
	model := arch.IA32Win()
	for _, w := range workloads.All() {
		for _, cfg := range benchConfigs() {
			w, cfg := w, cfg
			b.Run(w.Name+"/"+cfg.Name, func(b *testing.B) {
				// Verify the artifact before timing.
				p, entryM := w.Build()
				if _, err := CompileProgram(p, cfg, model); err != nil {
					b.Fatal(err)
				}
				m := machine.New(model, p)
				out, err := m.Call(entryM.Fn, w.TestN)
				if err != nil {
					b.Fatal(err)
				}
				if want := w.Ref(w.TestN); out.Value != want {
					b.Fatalf("checksum mismatch: got %d, want %d", out.Value, want)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p, _ := w.Build()
					if _, err := CompileProgram(p, cfg, model); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompileCacheHit measures the cached replay of a compilation —
// the cost a caching caller pays instead of compiling: hash the built
// program, look the key up, hit. The checksum check runs on the cached
// artifact itself.
func BenchmarkCompileCacheHit(b *testing.B) {
	model := arch.IA32Win()
	cfg := ConfigPhase1Phase2()
	for _, w := range workloads.All() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			cache := NewCache(0)
			seed, entryM := w.Build()
			key := Key(seed, cfg, model)
			entry, _, err := cache.GetOrCompile(key, false, func() (*CacheEntry, error) {
				res, err := CompileProgram(seed, cfg, model)
				if err != nil {
					return nil, err
				}
				return &CacheEntry{Program: seed, Result: res}, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			m := machine.New(model, entry.Program)
			out, err := m.Call(entryM.Fn, w.TestN)
			if err != nil {
				b.Fatal(err)
			}
			if want := w.Ref(w.TestN); out.Value != want {
				b.Fatalf("checksum mismatch: got %d, want %d", out.Value, want)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A replay still builds and hashes a fresh program — that is
				// the irreducible per-rep cost the cache leaves behind.
				p, _ := w.Build()
				e, hit, err := cache.GetOrCompile(Key(p, cfg, model), false, func() (*CacheEntry, error) {
					b.Fatal("cache miss on identical program")
					return nil, nil
				})
				if err != nil || !hit || e != entry {
					b.Fatalf("hit=%v err=%v", hit, err)
				}
			}
		})
	}
}
