package main

// Example runs the walkthrough and pins its output, simulated cycles
// included, so tier-1 checks it on the default engine.
func Example() {
	main()
	// Output:
	// scalar replacement alone:  loop body has 5 instructions
	// phase1 + scalar repl:      loop body has 3 instructions (1 hoisted)
	//
	// func sum(v0 ref, v1 int) int {
	// B0(entry):
	//     v2 = move 0
	//     v3 = move 0
	//     explicit_nullcheck v0 <moved>
	//     v4 = getfield v0.f
	//     jump B1(body)
	// B1(body):
	//     v3 = add v3, v4
	//     v2 = add v2, 1
	//     if v2 < v1 goto B1(body) else B2(exit)
	// B2(exit):
	//     return v3
	// }
	//
	// cycles without phase1: 700004
	// cycles with phase1:    300008  (133.3% faster)
}
