//go:build !race

package homeserver

const raceEnabled = false
