//go:build race

package live

// raceEnabled: the race detector's instrumentation allocates, so tests
// that bound allocations on paths it instruments skip under -race.
const raceEnabled = true
