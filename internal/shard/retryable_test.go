package shard

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// countingTransport records every Send and fails (or stalls) according to
// its mode, so the classification tests can count attempts precisely.
type countingTransport struct {
	calls atomic.Int64
	// perShard, when non-nil, decides each call's outcome by physical
	// shard; otherwise every call returns the context's error.
	perShard func(ctx context.Context, shard int) (*Response, error)
}

func (t *countingTransport) Send(ctx context.Context, shard int, req *Request) (*Response, error) {
	t.calls.Add(1)
	if t.perShard != nil {
		return t.perShard(ctx, shard)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestExpiredParentContextFailsFast pins the retry/failover classification:
// when the query's own deadline has expired, the group call must fail fast
// — no retry, no backoff sleep, no replica failover. Only per-attempt
// timeouts (ErrAttemptTimeout) may earn extra attempts.
func TestExpiredParentContextFailsFast(t *testing.T) {
	tr := &countingTransport{}
	c := NewWithTransport(tr, Options{
		Shards:       2,
		Replicas:     2,
		Retries:      3,
		RetryBackoff: time.Millisecond,
	})

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	start := time.Now()
	resp, ss := c.callGroup(ctx, 0, &Request{})
	if resp != nil || ss.Status != "error" {
		t.Fatalf("expired-context call: resp=%v status=%q", resp, ss.Status)
	}
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		t.Fatal("test context should be expired")
	}
	if n := tr.calls.Load(); n > 1 {
		t.Fatalf("expired query made %d transport calls, want at most 1 (no retry, no failover)", n)
	}
	if ss.Attempts > 1 {
		t.Fatalf("expired query recorded %d attempts, want at most 1", ss.Attempts)
	}
	if m := c.Metrics(); m.Retries != 0 || m.Failovers != 0 {
		t.Fatalf("expired query earned extra attempts: %+v", m)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("expired query took %v; it burned backoff sleeps", elapsed)
	}
}

// TestAttemptTimeoutFailsOver proves the complementary path: a per-attempt
// timeout (the shard is merely slow, the query is alive) is rebranded
// ErrAttemptTimeout and does earn retries and replica failover.
func TestAttemptTimeoutFailsOver(t *testing.T) {
	tr := &countingTransport{
		perShard: func(ctx context.Context, shard int) (*Response, error) {
			if shard == 0 {
				<-ctx.Done() // black hole: only the attempt deadline ends it
				return nil, ctx.Err()
			}
			return &Response{}, nil
		},
	}
	c := NewWithTransport(tr, Options{
		Shards:         2,
		Replicas:       2,
		Retries:        1,
		RetryBackoff:   time.Millisecond,
		AttemptTimeout: 10 * time.Millisecond,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	resp, ss := c.callGroup(ctx, 0, &Request{})
	if resp == nil || ss.Status != "ok" {
		t.Fatalf("slow-primary call failed: status=%q err=%q", ss.Status, ss.Err)
	}
	if ss.Replica != 1 {
		t.Fatalf("served by replica %d, want failover to 1", ss.Replica)
	}
	// Shard 0 black-holed: 1 primary + 1 retry; then shard 1 answered.
	if ss.Attempts != 3 {
		t.Fatalf("recorded %d attempts, want 3 (2 timed out + 1 failover)", ss.Attempts)
	}
	m := c.Metrics()
	if m.Retries != 1 || m.Failovers != 1 || m.FailoverWins != 1 {
		t.Fatalf("classification counters off: %+v", m)
	}
}

// TestErrAttemptTimeoutClassification pins retryable, which decides both
// retries and failover, directly: transport errors and attempt timeouts
// qualify, application errors and bare query-deadline expiry do not.
func TestErrAttemptTimeoutClassification(t *testing.T) {
	live := context.Background()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()

	appErr := errors.New("engine: bad geometry")
	cases := []struct {
		name string
		ctx  context.Context
		err  error
		want bool
	}{
		{"transport", live, ErrTransport, true},
		{"attempt-timeout", live, ErrAttemptTimeout, true},
		{"wrapped-attempt-timeout", live, &wrapErr{ErrAttemptTimeout}, true},
		{"application", live, appErr, false},
		{"bare-deadline", live, context.DeadlineExceeded, false},
		{"expired-parent", expired, ErrTransport, false},
	}
	for _, tc := range cases {
		if got := retryable(tc.ctx, tc.err); got != tc.want {
			t.Errorf("retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }
