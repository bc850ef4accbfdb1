package use

import (
	"context"

	"fix/dep"
)

type Client struct{}

func (c *Client) Ask(q string) error { return nil }

func (c *Client) AskContext(ctx context.Context, q string) error { return nil }

func fresh() context.Context {
	return context.Background() // want `context\.Background\(\) outside main`
}

func todo() context.Context {
	return context.TODO() // want `context\.TODO\(\) outside main`
}

// A ctx-less wrapper around a Context variant mints a root context too.
func mintsInsideOtherCall(c *Client, q string) error {
	return c.AskContext(context.Background(), q) // want `context\.Background\(\) outside main`
}

func drops(ctx context.Context, c *Client) error {
	return c.Ask("q") // want `Ask drops the caller's ctx: use AskContext`
}

func dropsPkgLevel(ctx context.Context) {
	dep.Fetch() // want `Fetch drops the caller's ctx: use FetchContext`
}

func threads(ctx context.Context, c *Client) error {
	return c.AskContext(ctx, "q") // ok: Context variant used
}

func noCtxToDropHere(c *Client) error {
	return c.Ask("q") // ok: this function has no ctx parameter
}
