package machine

import (
	"fmt"
	"os"
)

// Engine selects one of the machine's two execution engines.
//
// The engines are required to be observationally identical: same Outcome,
// same ExecStats, same Cycles, same errors, on every program. Cycle counts
// and trap classification are the paper's measurements, so the engine choice
// may change how fast the simulation runs on the host but never what it
// reports. TestEngineDifferential* assert this over every workload ×
// configuration × architecture model and over the randprog corpus.
type Engine uint8

const (
	// EngineClosure is the closure-compiled (subroutine-threaded) engine:
	// each instruction is pre-compiled to a step closure specialized on
	// opcode and operand shape, hot adjacent pairs are fused into
	// superinstructions, and every block runs as charged stretches ending at
	// calls and terminators, with the unexecuted suffix rolled back when an
	// instruction raises. A stretch the step limit could fire in runs in the
	// switch interpreter instead. An untiered machine interprets each
	// function until it turns hot and compiles it only then;
	// PrecompileClosures compiles every body up front. The default.
	EngineClosure Engine = iota
	// EngineSwitch is the original per-instruction switch interpreter, kept
	// as the reference implementation the closure engine is differentially
	// tested against.
	EngineSwitch
)

func (e Engine) String() string {
	if e == EngineSwitch {
		return "switch"
	}
	return "closure"
}

// EngineByName parses an engine name. The empty string selects the default
// closure engine.
func EngineByName(name string) (Engine, error) {
	switch name {
	case "closure", "":
		return EngineClosure, nil
	case "switch":
		return EngineSwitch, nil
	}
	return EngineClosure, fmt.Errorf("machine: unknown engine %q (want closure or switch)", name)
}

// DefaultEngine is the engine New installs on fresh machines. It is
// initialized from the TRAPNULL_ENGINE environment variable — so
// `TRAPNULL_ENGINE=switch go test ./...` runs the entire suite on the
// reference interpreter. Tests override it programmatically; the commands
// take it from the environment alone.
var DefaultEngine = engineFromEnv()

// engineFromEnv parses TRAPNULL_ENGINE and stops the process on a value
// EngineByName rejects: a misspelt engine name must not quietly run the
// other engine.
func engineFromEnv() Engine {
	e, err := EngineByName(os.Getenv("TRAPNULL_ENGINE"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "TRAPNULL_ENGINE: %v\n", err)
		os.Exit(2)
	}
	return e
}
