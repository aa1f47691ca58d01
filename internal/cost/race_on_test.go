//go:build race

package cost

// raceEnabled reports a -race build, whose sync.Pool drops items at random.
const raceEnabled = true
