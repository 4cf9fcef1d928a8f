// The one-shot verbs against the DAG executor: every <Verb>Ctx runs its plan
// node's validation and engine body directly, with no Plan, so nothing but
// this oracle keeps the sugar and Submit from drifting apart.
package roadrunner_test

import (
	"errors"
	"testing"

	roadrunner "github.com/polaris-slo-cloud/roadrunner-go"
)

// verbForm is one way to run a verb over the fixture's functions: its
// deliveries in target order, whichever API produced them.
type verbForm func(p *roadrunner.Platform, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) ([]roadrunner.DataRef, []roadrunner.Report, error)

// verbCase is one verb in both forms over planFixture's a, b (edge) and
// c, d (cloud): direct calls the one-shot method, node declares the matching
// plan node; both deliver into targets, in order.
type verbCase struct {
	name    string
	produce bool // the verb moves the source's current output: produce first
	direct  verbForm
	node    func(pl *roadrunner.Plan, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) *roadrunner.PlanNode
	targets func(f [4]*roadrunner.Function) []*roadrunner.Function
}

const verbPayload = 48 << 10

var verbCases = []verbCase{
	{
		name: "xfer", produce: true,
		direct: func(p *roadrunner.Platform, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) ([]roadrunner.DataRef, []roadrunner.Report, error) {
			ref, rep, err := p.TransferCtx(bg, f[0], f[2], opts...)
			return []roadrunner.DataRef{ref}, []roadrunner.Report{rep}, err
		},
		node: func(pl *roadrunner.Plan, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) *roadrunner.PlanNode {
			return pl.Xfer(f[0], f[2], opts...)
		},
		targets: func(f [4]*roadrunner.Function) []*roadrunner.Function { return f[2:3] },
	},
	{
		name: "hop",
		direct: func(p *roadrunner.Platform, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) ([]roadrunner.DataRef, []roadrunner.Report, error) {
			ref, rep, err := p.ChainCtx(bg, verbPayload, f[:3], opts...)
			return []roadrunner.DataRef{ref}, []roadrunner.Report{rep}, err
		},
		node: func(pl *roadrunner.Plan, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) *roadrunner.PlanNode {
			return pl.Hop(verbPayload, f[:3], opts...)
		},
		targets: func(f [4]*roadrunner.Function) []*roadrunner.Function { return f[2:3] },
	},
	{
		name: "cast", produce: true,
		direct: func(p *roadrunner.Platform, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) ([]roadrunner.DataRef, []roadrunner.Report, error) {
			return p.MulticastCtx(bg, f[0], f[1:], opts...)
		},
		node: func(pl *roadrunner.Plan, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) *roadrunner.PlanNode {
			return pl.Cast(f[0], f[1:], opts...)
		},
		targets: func(f [4]*roadrunner.Function) []*roadrunner.Function { return f[1:] },
	},
	{
		name: "fan",
		direct: func(p *roadrunner.Platform, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) ([]roadrunner.DataRef, []roadrunner.Report, error) {
			return p.FanoutCtx(bg, f[0], f[1:], verbPayload, opts...)
		},
		node: func(pl *roadrunner.Plan, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) *roadrunner.PlanNode {
			return pl.Fan(f[0], f[1:], verbPayload, opts...)
		},
		targets: func(f [4]*roadrunner.Function) []*roadrunner.Function { return f[1:] },
	},
	{
		name: "invoke",
		direct: func(p *roadrunner.Platform, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) ([]roadrunner.DataRef, []roadrunner.Report, error) {
			inv, err := p.InvokeCtx(bg, f[0], f[1], verbPayload, opts...)
			if err != nil {
				return nil, nil, err
			}
			return []roadrunner.DataRef{inv.Ref}, []roadrunner.Report{inv.Report}, nil
		},
		node: func(pl *roadrunner.Plan, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) *roadrunner.PlanNode {
			return pl.Invoke(f[0], f[1], verbPayload, opts...)
		},
		targets: func(f [4]*roadrunner.Function) []*roadrunner.Function { return f[1:2] },
	},
}

// submitted runs the case's node as a single-node job, in direct's shape.
func (vc verbCase) submitted(p *roadrunner.Platform, f [4]*roadrunner.Function, opts ...roadrunner.TransferOption) ([]roadrunner.DataRef, []roadrunner.Report, error) {
	job, node, err := submitOne(bg, p, func(pl *roadrunner.Plan) *roadrunner.PlanNode { return vc.node(pl, f, opts...) })
	if err != nil {
		return nil, nil, err
	}
	res, err := job.Wait(bg)
	if err != nil {
		return nil, nil, err
	}
	nr := res.Node(node)
	return nr.Refs, nr.Reports, nr.Err
}

// verbOutcome is what both forms of a verb must agree on.
type verbOutcome struct {
	modes              []string
	bytes              []int64
	syscalls           int64
	userCopy, kernCopy int64
}

// runVerb executes one form of vc on a fresh fixture and measures it from
// outside: the per-delivery reports, the checksums the targets' guests
// compute, and the account deltas summed over all four functions.
func runVerb(t *testing.T, vc verbCase, form verbForm) verbOutcome {
	t.Helper()
	p, f := planFixture(t)
	if vc.produce {
		if err := f[0].Produce(verbPayload); err != nil {
			t.Fatal(err)
		}
	}
	usage := func() (u roadrunner.Usage) {
		for _, fn := range f {
			u = u.Add(fn.Report().Total)
		}
		return u
	}
	before := usage()
	refs, reps, err := form(p, f)
	if err != nil {
		t.Fatal(err)
	}
	delta := usage().Sub(before)
	targets := vc.targets(f)
	if len(refs) != len(targets) || len(reps) != len(targets) {
		t.Fatalf("%d refs / %d reports for %d targets", len(refs), len(reps), len(targets))
	}
	out := verbOutcome{syscalls: delta.Syscalls, userCopy: delta.UserCopyBytes, kernCopy: delta.KernelCopyBytes}
	for i, dst := range targets {
		sum, err := dst.Checksum(refs[i])
		if err != nil {
			t.Fatal(err)
		}
		if want := roadrunner.ExpectedChecksum(verbPayload); sum != want {
			t.Fatalf("target %s: checksum %#x, want %#x", dst.Name(), sum, want)
		}
		out.modes = append(out.modes, reps[i].Mode)
		out.bytes = append(out.bytes, reps[i].Bytes)
	}
	return out
}

// TestVerbCtxMatchesSingleNodeSubmit: per verb, the one-shot form and a
// single-node Submit of the matching plan node deliver the same number of
// refs with the same report Mode/Bytes, the same syscall and copy deltas on
// the sandbox accounts, and checksum-exact payloads.
func TestVerbCtxMatchesSingleNodeSubmit(t *testing.T) {
	for _, vc := range verbCases {
		t.Run(vc.name, func(t *testing.T) {
			direct := runVerb(t, vc, vc.direct)
			viaJob := runVerb(t, vc, vc.submitted)
			if len(direct.modes) != len(viaJob.modes) {
				t.Fatalf("direct made %d deliveries, submitted %d", len(direct.modes), len(viaJob.modes))
			}
			for i := range direct.modes {
				if direct.modes[i] != viaJob.modes[i] || direct.bytes[i] != viaJob.bytes[i] {
					t.Errorf("delivery %d: direct %s/%d bytes, submitted %s/%d bytes",
						i, direct.modes[i], direct.bytes[i], viaJob.modes[i], viaJob.bytes[i])
				}
			}
			if direct.syscalls != viaJob.syscalls || direct.userCopy != viaJob.userCopy || direct.kernCopy != viaJob.kernCopy {
				t.Errorf("usage deltas: direct syscalls=%d user=%d kernel=%d, submitted syscalls=%d user=%d kernel=%d",
					direct.syscalls, direct.userCopy, direct.kernCopy, viaJob.syscalls, viaJob.userCopy, viaJob.kernCopy)
			}
		})
	}
}

// TestVerbCtxRejectsWhatSubmitRejects: an invalid node fails both forms
// with the same typed *PlanError — same node label, op and cause — before
// anything runs: the source's allocator stays at its baseline (a rejected
// fan-out produced nothing).
func TestVerbCtxRejectsWhatSubmitRejects(t *testing.T) {
	other := newPlatform(t, roadrunner.WithNodes("edge"))
	foreign := deploy(t, other, roadrunner.FunctionSpec{Name: "x", Node: "edge"})

	type invalid struct {
		name  string
		verbs []string // the verbs the fault applies to
		wreck func(f *[4]*roadrunner.Function) []roadrunner.TransferOption
		cause error // nil: no sentinel, compare text only
	}
	faults := []invalid{
		{
			name: "cross-platform function", verbs: []string{"xfer", "hop", "cast", "fan", "invoke"},
			wreck: func(f *[4]*roadrunner.Function) []roadrunner.TransferOption {
				f[1], f[2] = foreign, foreign // every verb delivers into b or c
				return nil
			},
		},
		{
			name: "ModeUserSpace cast", verbs: []string{"cast"},
			wreck: func(*[4]*roadrunner.Function) []roadrunner.TransferOption {
				return []roadrunner.TransferOption{roadrunner.WithMode(roadrunner.ModeUserSpace)}
			},
			cause: roadrunner.ErrModeUnavailable,
		},
		{
			name: "pinned target", verbs: []string{"cast", "fan"},
			wreck: func(f *[4]*roadrunner.Function) []roadrunner.TransferOption {
				return []roadrunner.TransferOption{roadrunner.WithTargetInstance(f[1].Instance(0))}
			},
			cause: roadrunner.ErrModeUnavailable,
		},
	}
	for _, fault := range faults {
		for _, vc := range verbCases {
			applies := false
			for _, v := range fault.verbs {
				applies = applies || v == vc.name
			}
			if !applies {
				continue
			}
			t.Run(fault.name+"/"+vc.name, func(t *testing.T) {
				p, f := planFixture(t)
				src := f[0]
				if err := src.Produce(verbPayload); err != nil {
					t.Fatal(err)
				}
				probe := allocProbe(t, src)
				opts := fault.wreck(&f)

				_, _, derr := vc.direct(p, f, opts...)
				_, _, serr := vc.submitted(p, f, opts...)
				var dpe, spe *roadrunner.PlanError
				if !errors.As(derr, &dpe) || !errors.As(serr, &spe) {
					t.Fatalf("direct = %v, submitted = %v; want *PlanError from both", derr, serr)
				}
				if dpe.Node != spe.Node || dpe.Op != spe.Op || dpe.Op != vc.name || derr.Error() != serr.Error() {
					t.Fatalf("direct rejected with %q (node %q, op %q), submitted with %q (node %q, op %q)",
						derr, dpe.Node, dpe.Op, serr, spe.Node, spe.Op)
				}
				if fault.cause != nil && (!errors.Is(derr, fault.cause) || !errors.Is(serr, fault.cause)) {
					t.Fatalf("direct = %v, submitted = %v; want both to wrap %v", derr, serr, fault.cause)
				}
				if got := allocProbe(t, src); got != probe {
					t.Fatalf("source alloc probe = %#x after two rejections, want baseline %#x", got, probe)
				}
			})
		}
	}
}
