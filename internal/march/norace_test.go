//go:build !race

package march

const raceEnabled = false
