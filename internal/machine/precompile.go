package machine

import "time"

// PrecompileClosures closure-compiles every method body of the machine's
// program up front and returns the host time spent. This is the "eager"
// strategy the tiered bench harness compares compile-time-to-peak against:
// an untiered EngineClosure machine pays this cost before the first call
// instead of spreading lazy compiles across the warm-up. Bodies already in
// the per-function table cost nothing.
func (m *Machine) PrecompileClosures() time.Duration {
	if m.Prog == nil {
		return 0
	}
	start := time.Now()
	for _, mth := range m.Prog.Methods {
		if mth.Fn != nil {
			m.compiled(mth.Fn)
		}
	}
	return time.Since(start)
}
