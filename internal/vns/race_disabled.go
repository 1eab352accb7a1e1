//go:build !race

package vns

const raceEnabled = false
