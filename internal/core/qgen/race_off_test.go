//go:build !race

package qgen

const raceDetector = false
