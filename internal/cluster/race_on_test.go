//go:build race

package cluster

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is given, so bounds on recycled buffers do not hold.
const raceEnabled = true
