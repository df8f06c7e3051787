//go:build !race

package rescache

const raceDetector = false
