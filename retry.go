package roadrunner

import (
	"errors"
	"fmt"

	"github.com/polaris-slo-cloud/roadrunner-go/internal/invoke"
	"github.com/polaris-slo-cloud/roadrunner-go/internal/kernel"
)

// HealthConfig tunes the per-instance health FSM every deployed function's
// routing state runs (DESIGN.md §8): strike thresholds, probe cooldowns and
// the probe backoff. Install it with WithHealth; the zero value is the
// default configuration.
type HealthConfig = invoke.HealthConfig

// HealthState is an instance's position in the health FSM; see the
// Health* constants.
type HealthState = invoke.HealthState

// Health states, reported by Instance.Health and InstanceAccount.Health.
const (
	// HealthHealthy marks a full routing candidate.
	HealthHealthy = invoke.Healthy
	// HealthSuspect marks an instance with recent strikes, still routable.
	HealthSuspect = invoke.Suspect
	// HealthUnhealthy marks an instance excluded from every placement
	// policy's candidate pool until its probe cooldown elapses.
	HealthUnhealthy = invoke.Unhealthy
	// HealthRecovering marks an excluded instance admitting probe traffic.
	HealthRecovering = invoke.Recovering
)

// maxDeliveryAttempts bounds retry-with-exclusion: one delivery may be
// re-routed onto surviving replicas at most this many times in total.
const maxDeliveryAttempts = 3

// callerFaults is the explicit caller-error marker of the retry taxonomy:
// kernel errors that condemn the request, not the replica. EINVAL and
// ENOTSUP reproduce identically on any instance, so retrying them would
// burn delivery attempts and strike healthy replicas for the caller's
// mistake. roadvet's errclass analyzer enforces that every exported kernel
// error appears either here or in isInstanceFault, keeping the taxonomy
// total as the kernel grows.
var callerFaults = []error{kernel.ErrInvalid, kernel.ErrNotSupported}

// isInstanceFault classifies an error as the instance's own failure — the
// simulated EIO/EBADF/EPIPE class a crashed sandbox, dropped wire or
// poisoned channel surfaces — as opposed to the caller's (cancellation, a
// mode restriction, a guest-level error, or the callerFaults kernel
// errors). Only instance faults strike the health FSM and justify retrying
// on another replica.
func isInstanceFault(err error) bool {
	for _, cf := range callerFaults {
		if errors.Is(err, cf) {
			return false
		}
	}
	return errors.Is(err, kernel.ErrIO) ||
		errors.Is(err, kernel.ErrBadFD) ||
		errors.Is(err, kernel.ErrClosed)
}

// observeDelivery feeds one delivery outcome into both endpoints' health
// FSMs (once, when both ends are the same instance).
func observeDelivery(si, di *Instance, rep Report, err error) {
	di.fn.route.Observe(di.index, rep.Latency(), err)
	if si != di {
		si.fn.route.Observe(si.index, rep.Latency(), err)
	}
}

// deliverRouted routes and executes one delivery from the fixed source
// instance si into the target pool dst with bounded retry-with-exclusion:
// when a delivery fails with an instance fault, the target instance takes
// the strike, is excluded, and the delivery is re-routed among the
// surviving replicas (at most maxDeliveryAttempts in total). The fixed
// source is blamed only on exhaustion — when two or more distinct re-routed
// targets all fault, the common factor is the source, so it takes one
// strike as the error propagates (a dead source thus leaves the candidate
// pool after FailureThreshold exhausted deliveries instead of striking
// innocent targets forever). Non-instance failures — cancellation, mode
// restrictions, guest errors — propagate immediately, and a pinned target
// (WithTargetInstance) gets exactly one attempt; its outcome still feeds
// the health FSM. Failed attempts release everything they landed exactly
// as cancellation does (the core layer restores FD, page-pool and channel
// baselines per attempt), so a retried delivery leaves no residue behind
// the replicas it gave up on.
func (p *Platform) deliverRouted(si *Instance, dst *Function, cfg *transferConfig) (DataRef, Report, error) {
	attempts := maxDeliveryAttempts
	if cfg.dstInst != nil {
		attempts = 1
	}
	var excluded map[*Instance]bool
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctxErr(cfg.ctx); err != nil {
			return DataRef{}, Report{}, err
		}
		di, err := p.resolveTarget(si, dst, cfg, excluded)
		if err != nil {
			if lastErr != nil {
				err = fmt.Errorf("%w (after delivery failure: %v)", err, lastErr)
			}
			return DataRef{}, Report{}, err
		}
		ref, rep, err := p.transferInstances(si, di, cfg)
		if err == nil {
			observeDelivery(si, di, rep, nil)
			return ref, rep, nil
		}
		// Cancellations and caller errors say nothing about the instances:
		// only instance faults strike the FSM — and they strike the target,
		// not the fixed source (the blame-the-target heuristic; a source
		// that is actually dead fails every re-routed target and surfaces
		// as attempt exhaustion instead).
		if !isInstanceFault(err) {
			return DataRef{}, Report{}, err
		}
		di.fn.route.Observe(di.index, rep.Latency(), err)
		if excluded == nil {
			excluded = make(map[*Instance]bool, attempts)
		}
		excluded[di] = true
		lastErr = err
	}
	// Exhaustion across ≥2 distinct targets implicates the fixed source.
	if len(excluded) >= 2 {
		si.fn.route.Observe(si.index, 0, lastErr)
	}
	return DataRef{}, Report{}, lastErr
}

// produceRouted routes one produce into the source pool with the same
// bounded retry-with-exclusion deliveries get: a replica whose guest faults
// with an instance fault takes the strike, is excluded, and the produce is
// re-routed among the surviving replicas. Produce outcomes feed the health
// FSM either way, so a recovering replica's successful produce counts as
// its probe.
func (p *Platform) produceRouted(src *Function, n int) error {
	if err := p.beginOp(); err != nil {
		return err
	}
	defer p.endOp()
	var excluded map[*Instance]bool
	var lastErr error
	for a := 0; a < maxDeliveryAttempts; a++ {
		si, err := src.pickInstanceExcluding(excluded)
		if err != nil {
			if lastErr != nil {
				err = fmt.Errorf("%w (after produce failure: %v)", err, lastErr)
			}
			return err
		}
		_, err = func() (DataRef, error) {
			src.route.Enter(si.index)
			defer src.route.Exit(si.index)
			return si.produceAt(n)
		}()
		if err == nil {
			src.route.Observe(si.index, 0, nil)
			return nil
		}
		if !isInstanceFault(err) {
			return err
		}
		src.route.Observe(si.index, 0, err)
		if excluded == nil {
			excluded = make(map[*Instance]bool, maxDeliveryAttempts)
		}
		excluded[si] = true
		lastErr = err
	}
	return lastErr
}
