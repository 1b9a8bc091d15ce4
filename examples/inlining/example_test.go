package main

// Example runs the walkthrough and pins its output, simulated cycles
// included, so tier-1 checks it on the default engine.
func Example() {
	main()
	// Output:
	// === original call site ===
	// func caller(v0 ref, v1 int) int {
	// B0(entry):
	//     explicit_nullcheck v0 <call>
	//     v2 = callvirt Box.clampedGet(v0, v1)
	//     return v2
	// }
	//
	// === after devirtualization + inlining (1 site) ===
	// func caller(v0 ref, v1 int) int {
	// B0(entry):
	//     explicit_nullcheck v0 <inlined>
	//     jump B2(clampedGet_entry)
	// B1(entry_cont):
	//     return v2
	// B2(clampedGet_entry):
	//     if v1 < 0 goto B3(clampedGet_neg) else B4(clampedGet_pos)
	// B3(clampedGet_neg):
	//     v2 = move v1
	//     jump B1(entry_cont)
	// B4(clampedGet_pos):
	//     explicit_nullcheck v0 <field>
	//     v3 = getfield v0.value
	//     v2 = move v3
	//     jump B1(entry_cont)
	// }
	// note the explicit ReasonInlined null check: the dispatch load that
	// would have trapped is gone, so the check must exist (Figure 1)
	//
	// === after Phase1 + Phase2 (1 implicit, 1 explicit left) ===
	// func caller(v0 ref, v1 int) int {
	// B0(entry):
	//     if v1 < 0 goto B3(clampedGet_neg) else B4(clampedGet_pos)
	// B1(entry_cont):
	//     return v2
	// B3(clampedGet_neg):
	//     v2 = move v1
	//     explicit_nullcheck v0 <moved>
	//     jump B1(entry_cont)
	// B4(clampedGet_pos):
	//     v3 = getfield v0.value  // excsite(v0)
	//     v2 = move v3
	//     jump B1(entry_cont)
	// }
	// the dereferencing path carries an implicit check (excsite); the
	// early-return path keeps one explicit check at its latest point (Figure 7)
	// caller(box=0x100000, i=5) -> value=42 exc=none
	// caller(box=0x100000, i=-3) -> value=-3 exc=none
	// caller(box=0x0, i=5) -> value=0 exc=NullPointerException
	// caller(box=0x0, i=-3) -> value=0 exc=NullPointerException
}
