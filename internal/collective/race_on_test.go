//go:build race

package collective

// raceEnabled reports a -race build, whose instrumented code allocates more.
const raceEnabled = true
