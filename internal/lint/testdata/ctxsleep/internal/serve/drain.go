// Package serve seeds the uncancellable-sleep violation: a bare
// time.Sleep inside a context-carrying function in the serving layer.
package serve

import (
	"context"
	"time"
)

// Drain carries a context but stalls with a sleep cancellation cannot
// interrupt.
func Drain(ctx context.Context) {
	time.Sleep(50 * time.Millisecond)
	<-ctx.Done()
}
