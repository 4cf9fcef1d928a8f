// Package roadrunner mimics the root package's public surface for the
// ctxcheck contract: Platform data-plane entry points take a context first.
package roadrunner

import "context"

// Function mimics the data-plane handle type.
type Function struct{}

// Platform mimics the root platform type.
type Platform struct{}

// Transfer is a data-plane entry point with no ctx story.
func (p *Platform) Transfer(src, dst *Function) error { return nil } // want "first parameter is not a context.Context"

// TransferCtx is the one form per verb: context first.
func (p *Platform) TransferCtx(ctx context.Context, src, dst *Function) error { return nil }

// ChainCtx takes its functions as a slice.
func (p *Platform) ChainCtx(ctx context.Context, n int, fns []*Function) error { return nil }

// FanoutLate has a context, but not where a caller looks for it.
func (p *Platform) FanoutLate(src *Function, ctx context.Context) error { return nil } // want "first parameter is not a context.Context"

// Deploy touches no deployed function and is out of scope.
func (p *Platform) Deploy(name string) (*Function, error) { return nil, nil }

// helper is unexported and out of scope.
func (p *Platform) helper(f *Function) {}

// Produce is a method of Function, not a Platform entry point.
func (f *Function) Produce(n int) error { return nil }
