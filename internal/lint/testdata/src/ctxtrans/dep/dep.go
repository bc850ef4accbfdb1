// Package dep provides a client with paired ctx-less / Context-variant
// methods.
package dep

import "context"

type Client struct{}

func (Client) Query(q string) int { return len(q) }

func (Client) QueryContext(ctx context.Context, q string) int { return len(q) }
