//go:build race

package core

// raceEnabled lets the budget test skip itself under -race: the race
// detector's instrumentation would make any allocation count
// meaningless.
const raceEnabled = true
