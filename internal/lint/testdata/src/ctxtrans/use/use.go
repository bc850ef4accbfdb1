// Package use pins ctxflow's scope: rule 2 looks at one call in the frame
// that holds the ctx. A ctx-less helper that calls the ctx-less variant
// further down is not followed.
package use

import (
	"context"

	"fix/dep"
)

func helper(c dep.Client) int {
	return c.Query("x") // ok: helper holds no ctx to drop
}

// ok: the drop happens below a ctx-less helper, which is not followed.
func Run(ctx context.Context, c dep.Client) int {
	return helper(c)
}

func RunDirect(ctx context.Context, c dep.Client) int {
	return c.Query("x") // want `Query drops the caller's ctx: use QueryContext instead`
}

// ok: the context is threaded all the way down.
func RunThreaded(ctx context.Context, c dep.Client) int {
	return c.QueryContext(ctx, "x")
}
