//go:build race

package visgraph

// raceEnabled reports a -race build, where sync.Pool drops a share of what
// it is handed on purpose, so the allocation gates do not apply.
const raceEnabled = true
