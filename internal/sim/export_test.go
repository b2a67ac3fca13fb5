package sim

// The naive reference loop, exported to the external sim_test package.
var (
	NaiveTick = naiveTick
	NaiveRun  = naiveRun
)
