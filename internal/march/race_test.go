//go:build race

package march

// raceEnabled reports a -race build, under which sync.Pool drops a share
// of Put items at random, so pooled code cannot be allocation-free.
const raceEnabled = true
