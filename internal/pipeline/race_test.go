//go:build race

package pipeline

// raceEnabled reports that this test binary was built with the race
// detector, which deliberately defeats sync.Pool reuse — allocation-count
// assertions are meaningless under it.
const raceEnabled = true
