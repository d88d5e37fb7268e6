//go:build !race

package pipeline

const raceEnabled = false
