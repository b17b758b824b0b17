package shard

import (
	"context"
	"time"
)

// HealthChecker is the transport capability the background prober uses: a
// cheap liveness probe of one shard that never touches query state.
// HTTPTransport hits the worker's /readyz.
type HealthChecker interface {
	CheckHealth(ctx context.Context, shard int) error
}

// proberTimeout bounds one health probe so a black-holing shard cannot
// wedge the prober loop.
const proberTimeout = 2 * time.Second

// StartProber launches the background health prober: every interval it
// walks the shards whose breakers are non-closed and, when a breaker's
// cooldown has elapsed (half-open), spends the breaker's single trial call
// on a CheckHealth probe instead of a live query. A healthy answer releases
// the breaker — so a restarted shard rejoins the replica rotation without a
// client query ever being risked on it; a failed probe re-opens the breaker
// for another cooldown. No-op if the transport lacks HealthChecker, if
// interval is non-positive, or if a prober is already running.
func (c *Coordinator) StartProber(interval time.Duration) {
	hc, ok := c.tr.(HealthChecker)
	if !ok || interval <= 0 {
		return
	}
	c.proberMu.Lock()
	defer c.proberMu.Unlock()
	if c.proberStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.proberStop, c.proberDone = stop, done
	go func() {
		defer close(done)
		c.probeLoop(hc, interval, stop)
	}()
}

// StopProber stops the background prober and waits for its goroutine to
// exit. Safe to call when no prober is running, and idempotent.
func (c *Coordinator) StopProber() {
	c.proberMu.Lock()
	stop, done := c.proberStop, c.proberDone
	c.proberStop, c.proberDone = nil, nil
	c.proberMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// probeLoop is the prober goroutine body. It holds no locks across probes
// and exits promptly on stop.
func (c *Coordinator) probeLoop(hc HealthChecker, interval time.Duration, stop <-chan struct{}) {
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			c.probeOnce(hc)
		case <-stop:
			return
		}
	}
}

// probeOnce probes every shard whose breaker currently admits a trial call.
// Breaker.Allow is the gate: it returns false while the cooldown runs and
// consumes the half-open trial slot when it has elapsed, so the prober and
// concurrent queries cannot double-spend the same trial.
func (c *Coordinator) probeOnce(hc HealthChecker) {
	for _, e := range c.breaker.Entries() {
		s := e.Key
		if s < 0 || s >= c.opts.Shards {
			continue
		}
		if !c.breaker.Allow(s) {
			continue
		}
		c.probes.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), proberTimeout)
		err := hc.CheckHealth(ctx, s)
		cancel()
		if err != nil {
			c.probeFailures.Add(1)
			c.breaker.Failure(s, firstLine(err.Error()))
			continue
		}
		c.probeRecoveries.Add(1)
		c.breaker.Success(s)
	}
}
