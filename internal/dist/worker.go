package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"phasetune/internal/exec"
	"phasetune/internal/sim"
	"phasetune/internal/workload"
)

// errCrashed reports a test-hook-induced worker loss.
var errCrashed = errors.New("dist: worker crashed (test hook)")

// Worker executes leases from a coordinator. It registers once, rebuilds
// the session environment from the coordinator's EnvSpec, and then loops:
// lease, run, commit. The suite is generated at the first spec that draws
// from it, so serving, alternation and fleet campaigns never pay for it.
// One artifact cache and one cost-table store live for the worker's whole
// lifetime, so each distinct (benchmark, technique) image is prepared once
// per worker no matter how many leases touch it, and block cost tables
// built for one lease price later ones — the warm-cache property that
// makes long campaigns cheap.
// Both are strictly worker-local: neither changes a result (DESIGN.md
// §13), so sharded merges stay byte-identical without either ever
// crossing the wire.
type Worker struct {
	// Name labels the worker at registration (shows up in worker IDs).
	Name string
	// Transport connects to the coordinator.
	Transport Transport
	// RetryWait overrides the poll delay while the coordinator has no
	// work and suggests none (default 100ms).
	RetryWait time.Duration

	// crashAfter, when positive, makes the worker exit without committing
	// after completing that many runs — a test hook simulating worker loss
	// mid-lease (the completed-but-uncommitted run must be re-dispatched).
	crashAfter int
}

// Run drives the worker until the campaign completes, the context fires,
// or a run fails. Run failures are reported to the coordinator (aborting
// the campaign — runs are deterministic, retries would fail identically)
// and returned.
func (w *Worker) Run(ctx context.Context) error {
	reg, err := w.Transport.Register(ctx, w.Name)
	if err != nil {
		return fmt.Errorf("dist: register: %w", err)
	}
	if err := reg.Env.Validate(); err != nil {
		return err
	}
	var suite []*workload.Benchmark
	cache := sim.NewImageCache()
	tables := exec.NewCostTables()

	// Heartbeat at a third of the lease TTL for as long as the worker
	// lives, so healthy-but-slow runs never lose their lease.
	hctx, stopHeartbeats := context.WithCancel(ctx)
	defer stopHeartbeats()
	if ttl := time.Duration(reg.LeaseTTLSec * float64(time.Second)); ttl > 0 {
		go w.heartbeats(hctx, reg.WorkerID, ttl/3)
	}

	runs := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lr, err := retryTransient(ctx, func() (*LeaseReply, error) {
			return w.Transport.Lease(ctx, reg.WorkerID)
		})
		if err != nil {
			return fmt.Errorf("dist: lease: %w", err)
		}
		switch lr.Status {
		case StatusDone:
			return nil
		case StatusWait:
			if err := sleep(ctx, w.pollDelay(lr)); err != nil {
				return err
			}
		case StatusLease:
			if len(lr.Specs) != len(lr.Indices) {
				return fmt.Errorf("dist: lease %s: %d specs for %d indices", lr.LeaseID, len(lr.Specs), len(lr.Indices))
			}
			if err := w.runLease(ctx, reg, &suite, cache, tables, lr, &runs); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: lease: unknown status %q", lr.Status)
		}
	}
}

// runLease executes and commits one lease's specs in order, generating
// *suite at the first spec that draws from it.
func (w *Worker) runLease(ctx context.Context, reg *RegisterReply, suite *[]*workload.Benchmark,
	cache *sim.ImageCache, tables *exec.CostTables, lr *LeaseReply, runs *int) error {

	for k, idx := range lr.Indices {
		sp := lr.Specs[k]
		var rerr error
		if *suite == nil && sp.Queues.DrawsSuite() {
			if *suite, rerr = reg.Env.Suite(); rerr != nil {
				rerr = fmt.Errorf("rebuild suite: %w", rerr)
			}
		}
		var cfg sim.RunConfig
		if rerr == nil {
			cfg, rerr = reg.Env.RunConfig(sp, *suite, cache)
		}
		cfg.Tables = tables
		var res *sim.Result
		if rerr == nil {
			res, rerr = sim.RunContext(ctx, cfg)
		}
		if rerr != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			_, _ = w.Transport.Commit(ctx, CommitRequest{
				WorkerID: reg.WorkerID, LeaseID: lr.LeaseID, Index: idx, Error: rerr.Error(),
			})
			return fmt.Errorf("dist: spec %d: %w", idx, rerr)
		}
		*runs++
		if w.crashAfter > 0 && *runs >= w.crashAfter {
			return errCrashed
		}
		raw, err := EncodeResult(res)
		if err != nil {
			return fmt.Errorf("dist: spec %d: %w", idx, err)
		}
		// A duplicate reply is benign: another worker (or our own expired
		// lease's re-dispatch) committed the byte-identical result first.
		// Commits retry on transient transport failure — safe because a
		// commit that did land makes the retry a rejected duplicate.
		if _, err := retryTransient(ctx, func() (*CommitReply, error) {
			return w.Transport.Commit(ctx, CommitRequest{
				WorkerID: reg.WorkerID, LeaseID: lr.LeaseID, Index: idx, Result: raw,
			})
		}); err != nil {
			return fmt.Errorf("dist: commit spec %d: %w", idx, err)
		}
	}
	return nil
}

// pollDelay picks the wait before the next lease poll.
func (w *Worker) pollDelay(lr *LeaseReply) time.Duration {
	if lr.RetrySec > 0 {
		return time.Duration(lr.RetrySec * float64(time.Second))
	}
	if w.RetryWait > 0 {
		return w.RetryWait
	}
	return 100 * time.Millisecond
}

// heartbeats pings the coordinator until the campaign reports done or the
// context fires. Transient failures are ignored — one dropped ping must
// not silence a healthy worker's liveness for the rest of the campaign —
// and the main loop ends the goroutine via ctx when the worker exits.
func (w *Worker) heartbeats(ctx context.Context, workerID string, period time.Duration) {
	if period <= 0 {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if hb, err := w.Transport.Heartbeat(ctx, workerID); err == nil && hb.Done {
				return
			}
		}
	}
}

// retryTransient runs one transport call, retrying transport-level
// failures (dropped connections, timeouts) with backoff. Protocol-level
// rejections — the coordinator answered and said no, always "dist:"-
// prefixed — are final immediately.
func retryTransient[T any](ctx context.Context, f func() (T, error)) (T, error) {
	var zero T
	backoff := 200 * time.Millisecond
	for attempt := 0; ; attempt++ {
		v, err := f()
		if err == nil {
			return v, nil
		}
		if attempt >= 3 || ctx.Err() != nil || strings.HasPrefix(err.Error(), "dist: ") {
			return zero, err
		}
		if serr := sleep(ctx, backoff); serr != nil {
			return zero, serr
		}
		backoff *= 2
	}
}

// sleep waits d, honoring ctx.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
