// Package helper is an uncovered package the deterministic package calls
// into.
package helper

import "time"

func Stamp() int {
	return int(time.Now().UnixNano())
}

type Source interface{ Value() int }

type WallClock struct{}

func (WallClock) Value() int { return int(time.Now().UnixNano()) }
