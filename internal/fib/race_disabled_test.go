//go:build !race

package fib

const raceEnabled = false
