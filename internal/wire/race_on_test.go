//go:build race

package wire

// raceEnabled: under the race detector sync.Pool drops a quarter of
// what it is given, so pooled state is rebuilt and allocation bounds
// on it do not hold.
const raceEnabled = true
