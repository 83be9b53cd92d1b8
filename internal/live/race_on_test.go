//go:build race

package live

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is given, so bounds on recycled message buffers do not hold.
const raceEnabled = true
