//go:build !race

package geoip

const raceEnabled = false
