//go:build race

package query

// raceEnabled reports a -race build, whose detector drops sync.Pool items
// at random: allocation counts that go through the scratch pools vary
// from run to run there.
const raceEnabled = true
