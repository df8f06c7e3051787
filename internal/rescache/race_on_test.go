//go:build race

package rescache

// raceDetector reports a -race build: its sync.Pool drops items at random,
// so allocation counts are not the program's own.
const raceDetector = true
