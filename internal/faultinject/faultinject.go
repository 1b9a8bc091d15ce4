// Package faultinject is the deterministic seeded fault-injection framework
// behind the chaos harness (bench.RunChaos, benchtab -chaos).
//
// Every injection decision is a pure function of the seed and the fault's
// SEMANTIC coordinates — never of wall-clock time, goroutine identity or
// sweep scheduling. The coordinates are chosen so the decision set itself is
// schedule-independent:
//
//   - compile-pass faults key on (cache key ID, method, pass): the
//     compilation's content identity, so the same compile draws the same
//     fault on every run at any worker count;
//   - engine step faults key on the cell identity (model, config, workload)
//     and fire at a seed-derived dynamic step count, through the machines'
//     shared step-limit choke point — both engines report the identical
//     fault at the identical count.
//
// The injector records every armed decision; Schedule() renders them sorted,
// so two runs with the same seed produce byte-identical schedules regardless
// of parallelism.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Injector draws fault schedules from a seed. The rate fields are "one in N"
// probabilities over the coordinate hash (0 disables that fault class). The
// zero value is unusable; construct with New.
type Injector struct {
	Seed int64

	// PassFaultEvery injects a panic into roughly 1/N of (compilation,
	// method, pass) coordinates.
	PassFaultEvery uint64
	// StepFaultEvery arms an engine step fault in roughly 1/N of cells; the
	// firing step is drawn from the same hash.
	StepFaultEvery uint64
	// MaxFaultStep bounds the drawn firing step (exclusive); the default
	// covers a quick-size cell's dynamic step range.
	MaxFaultStep int64

	mu    sync.Mutex
	armed map[string]bool
}

// New returns an injector with the default rates: pass faults rare enough
// that most compilations survive, step faults in a third of cells.
func New(seed int64) *Injector {
	return &Injector{
		Seed:           seed,
		PassFaultEvery: 300,
		StepFaultEvery: 3,
		MaxFaultStep:   150_000,
		armed:          make(map[string]bool),
	}
}

// hash folds the seed and coordinates through FNV-1a. Deterministic across
// platforms and processes.
func (j *Injector) hash(coords ...string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d", j.Seed)
	for _, c := range coords {
		h.Write([]byte{0})
		h.Write([]byte(c))
	}
	return h.Sum64()
}

// record notes an armed decision for the schedule.
func (j *Injector) record(line string) {
	j.mu.Lock()
	j.armed[line] = true
	j.mu.Unlock()
}

// PassFault returns the jit.CompileOptions.PassFault hook for one
// compilation, identified by its cache key ID. The returned function is pure:
// the same (seed, key, method, pass) always injects — or always doesn't.
func (j *Injector) PassFault(keyID string) func(method, pass string) string {
	if j.PassFaultEvery == 0 {
		return nil
	}
	return func(method, pass string) string {
		h := j.hash("pass", keyID, method, pass)
		if h%j.PassFaultEvery != 0 {
			return ""
		}
		j.record(fmt.Sprintf("pass-fault  key=%s method=%s pass=%s", keyID, method, pass))
		return fmt.Sprintf("faultinject: injected pass fault (seed %d)", j.Seed)
	}
}

// StepFault decides whether the cell identified by cellID suffers an engine
// step fault and at which dynamic step count it fires. The machine arms it
// with Machine.InjectStepFault.
func (j *Injector) StepFault(cellID string) (step int64, ok bool) {
	if j.StepFaultEvery == 0 {
		return 0, false
	}
	h := j.hash("step", cellID)
	if h%j.StepFaultEvery != 0 {
		return 0, false
	}
	max := j.MaxFaultStep
	if max <= 0 {
		max = 150_000
	}
	step = int64(j.hash("step-at", cellID)%uint64(max)) + 1
	j.record(fmt.Sprintf("step-fault  cell=%s step=%d", cellID, step))
	return step, true
}

// BurstWindows derives nb adversarial null-burst windows over [0, n) for the
// workload identified by name: deterministic start/length pairs the seeded
// burst workload bakes into its kernel. Windows are disjoint and sorted.
func (j *Injector) BurstWindows(name string, n, nb int64) [][2]int64 {
	if nb <= 0 || n <= 0 {
		return nil
	}
	stride := n / nb
	if stride < 2 {
		stride, nb = 2, n/2
	}
	wins := make([][2]int64, 0, nb)
	for k := int64(0); k < nb; k++ {
		base := k * stride
		start := base + int64(j.hash("burst-start", name, fmt.Sprint(k))%uint64(stride/2+1))
		length := int64(j.hash("burst-len", name, fmt.Sprint(k))%uint64(stride/2)) + 1
		if start+length > base+stride {
			length = base + stride - start
		}
		wins = append(wins, [2]int64{start, length})
	}
	return wins
}

// Schedule renders every armed decision, sorted, one per line. Byte-identical
// across runs with the same seed at any parallelism, because arming depends
// only on which coordinates exist — a property of the sweep, not the
// schedule.
func (j *Injector) Schedule() []string {
	j.mu.Lock()
	lines := make([]string, 0, len(j.armed))
	for l := range j.armed {
		lines = append(lines, l)
	}
	j.mu.Unlock()
	sort.Strings(lines)
	return lines
}
