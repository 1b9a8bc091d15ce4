package main

// Example runs the walkthrough and pins its output, simulated cycles
// included, so tier-1 checks it on the default engine.
func Example() {
	main()
	// Output:
	// AIX model: writes trap, reads do not (Figure 5(2)); explicit
	// checks are 1-cycle conditional traps; the store blocks check motion.
	//
	// no speculation   hoisted=0 speculated-loads=0 result=250000 cycles=600005
	// speculation      hoisted=2 speculated-loads=2 result=250000 cycles=400009
	//
	// speculation is 50.0% faster: the array reads moved above their
	// null checks and out of the loop — legal only because a null read
	// cannot trap on this platform (§3.3.1)
}
