package sim

import "repro/internal/monitor"

// ObserverOracle returns an empty observer configured and seeded like the
// engine's own, for tests that replay the engine's truth through the
// serial ObserveVM/ObservePM path.
func (e *Engine) ObserverOracle() *monitor.Observer { return newObserver(e.cfg) }
