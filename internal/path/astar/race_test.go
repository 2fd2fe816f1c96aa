//go:build race

package astar

func init() { raceEnabled = true }
