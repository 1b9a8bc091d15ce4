package main

// Example runs the walkthrough and pins its output, simulated cycles
// included, so tier-1 checks it on the default engine.
func Example() {
	main()
	// Output:
	// === before optimization ===
	// func sumX(v0 ref, v1 int) int {
	// B0(entry):
	//     v2 = move 0
	//     v3 = move 0
	//     jump B1(body)
	// B1(body):
	//     explicit_nullcheck v0 <field>
	//     v4 = getfield v0.x
	//     v3 = add v3, v4
	//     v2 = add v2, 1
	//     if v2 < v1 goto B1(body) else B2(exit)
	// B2(exit):
	//     return v3
	// }
	// === after Phase1 + Phase2 ===
	// func sumX(v0 ref, v1 int) int {
	// B0(entry):
	//     v2 = move 0
	//     v3 = move 0
	//     jump B1(body)
	// B1(body):
	//     v4 = getfield v0.x  // excsite(v0)
	//     v3 = add v3, v4
	//     v2 = add v2, 1
	//     if v2 < v1 goto B3(crit1_1) else B2(exit)
	// B2(exit):
	//     return v3
	// B3(crit1_1):
	//     jump B1(body)
	// }
	// phase1: eliminated 1, inserted 1; phase2: implicit 0, explicit left 0
	//
	// sumX(p, 10) = 70 in 54 simulated cycles (0 explicit checks executed)
	// sumX(null, 10) -> NullPointerException (hardware traps taken: 1)
}
