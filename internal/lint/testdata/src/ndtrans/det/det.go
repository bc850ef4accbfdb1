// Package det is covered by the determinism policy. Its calls into an
// uncovered package are not followed: the policy reads det's own code.
package det

import (
	"time"

	"fix/helper"
)

// ok: the clock read is in helper, one call away.
func Run() int {
	return helper.Stamp()
}

// ok: interface dispatch is not followed either.
func UseSource(s helper.Source) int {
	return s.Value()
}

// A clock read in det itself is still reported.
func Direct() int {
	return int(time.Now().UnixNano()) // want `time\.Now reads the wall clock`
}
