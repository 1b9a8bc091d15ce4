package main

// Example runs the walkthrough and pins its output, simulated cycles
// included, so tier-1 checks it on the default engine.
func Example() {
	main()
	// Output:
	// NullStorm: 2000 dereferences in a try/catch loop; the parameter is
	// how many per 1000 are null. Explicit check: 2 cycles; a check that
	// fails throws in ~1000 cycles; a hardware trap costs ~5000 cycles.
	//
	// nulls per 1000    explicit (cycles) trap-based (cycles)     winner
	// 0                             70041              66039       trap   (0 traps fired)
	// 1                             72037              76039   explicit   (2 traps fired)
	// 2                             75031              91039   explicit   (5 traps fired)
	// 5                             82017             126039   explicit   (12 traps fired)
	// 20                           115949             296039   explicit   (46 traps fired)
	// 100                          270639            1071039   explicit   (201 traps fired)
	// 500                         1049079            4971039   explicit   (981 traps fired)
	//
	// the crossover sits at roughly one null per thousand dereferences:
	// the optimization assumes exceptions are exceptional — which is why
	// the VMs that adopted it recompile methods that keep trapping
}
