package sim

// naiveTick is the engine's tick as it stood before memoization: every
// tick rebuilds the flow set and runs a full memsys solve, even when its
// inputs are provably unchanged, and the latency feedback runs
// unconditionally. It shares every building block with tick, so the two
// differ only in the memoization the replay path adds. It is the oracle
// TestFastForwardEquivalence, TestCompletionHorizonNeverContainsACompletion
// and FuzzEngineEquivalence hold AdvanceTicks and Run to, bit for bit.
func naiveTick(e *Engine) {
	e.prepare()
	e.buildFlows()
	e.lastRes = e.solver.Solve(e.flows)
	e.planAttribution()
	e.noteSolve()
	e.attribute()
	e.advanceApps()
	e.feedback()
	for _, he := range e.hooks {
		he.h.Tick(e)
	}
	e.now += e.Cfg.DT
	e.ticks++
}

// naiveRun is Run on naiveTick: place every app, then tick until all
// foreground apps complete or MaxTime elapses.
func naiveRun(e *Engine) (*Result, error) {
	if err := e.place(); err != nil {
		return nil, err
	}
	for !e.allForegroundDone() {
		if e.now >= e.Cfg.MaxTime {
			return e.result(true), nil
		}
		naiveTick(e)
	}
	return e.result(false), nil
}
