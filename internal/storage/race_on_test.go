//go:build race

package storage

// raceEnabled: the race detector makes sync.Pool drop a random share of
// Puts, so bounds that rely on a pooled object being reused do not hold.
const raceEnabled = true
