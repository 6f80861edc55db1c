//go:build !race

package netrel

const raceDetectorEnabled = false
