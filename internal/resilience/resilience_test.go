package resilience

import (
	"testing"
	"time"
)

func TestBackoffDeterministicAndBounded(t *testing.T) {
	cfg := BackoffConfig{Base: 10 * time.Millisecond, Max: 160 * time.Millisecond, Factor: 2, Jitter: 0.2, Seed: 7}
	for attempt := 1; attempt <= 12; attempt++ {
		a, b := cfg.Next(attempt), cfg.Next(attempt)
		if a != b {
			t.Fatalf("attempt %d: Next is not deterministic: %v vs %v", attempt, a, b)
		}
		lo := time.Duration(float64(cfg.Base) * 0.8)
		hi := time.Duration(float64(cfg.Max) * 1.2)
		if a < lo || a > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, a, lo, hi)
		}
	}
	// Different seeds give different jitter streams (with overwhelming
	// probability over 12 attempts).
	other := cfg
	other.Seed = 8
	same := true
	for attempt := 1; attempt <= 12; attempt++ {
		if cfg.Next(attempt) != other.Next(attempt) {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical schedules")
	}
}

func TestBackoffJitterFreeGrowth(t *testing.T) {
	cfg := BackoffConfig{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := cfg.Next(i + 1); got != w*time.Millisecond {
			t.Fatalf("attempt %d: %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestBudgetBoundsRetries(t *testing.T) {
	b := NewBudget(BudgetConfig{MaxTokens: 3, RetryCost: 1, SuccessRefund: 0.5})
	granted := 0
	for i := 0; i < 10; i++ {
		if b.TryRetry() {
			granted++
		}
	}
	if granted != 3 {
		t.Fatalf("granted %d retries from a 3-token bucket", granted)
	}
	if b.Exhausted() != 7 {
		t.Fatalf("exhausted %d, want 7", b.Exhausted())
	}
	// Two successes refund one token.
	b.OnSuccess()
	b.OnSuccess()
	if !b.TryRetry() {
		t.Fatal("refunded token not granted")
	}
	if b.TryRetry() {
		t.Fatal("bucket granted more than the refund")
	}
	// Refunds cap at MaxTokens.
	for i := 0; i < 100; i++ {
		b.OnSuccess()
	}
	if got := b.Tokens(); got != 3 {
		t.Fatalf("tokens %g after heavy refund, want cap 3", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenFor: time.Second, Clock: clock})

	if b.State() != StateClosed || !b.Allow() {
		t.Fatal("new breaker is not closed/allowing")
	}
	b.OnFailure()
	b.OnFailure()
	b.OnSuccess() // resets the consecutive count
	b.OnFailure()
	b.OnFailure()
	if b.State() != StateClosed {
		t.Fatal("breaker tripped before threshold of consecutive failures")
	}
	b.OnFailure()
	if b.State() != StateOpen || b.Opens() != 1 {
		t.Fatalf("state %v opens %d after threshold, want open/1", b.State(), b.Opens())
	}
	if b.Allow() || !b.Tripped() {
		t.Fatal("open breaker admitted a call inside the cool-down")
	}
	// Cool-down elapses: exactly MaxProbes (1) trial call is admitted.
	now = now.Add(time.Second)
	if b.Tripped() {
		t.Fatal("expired open breaker still reports tripped")
	}
	if !b.Allow() {
		t.Fatal("expired open breaker refused the probe")
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state %v after probe admit, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent probe admitted with MaxProbes=1")
	}
	// Probe fails: re-open, new cool-down.
	b.OnFailure()
	if b.State() != StateOpen || b.Opens() != 2 {
		t.Fatalf("state %v opens %d after failed probe, want open/2", b.State(), b.Opens())
	}
	now = now.Add(time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.OnSuccess()
	if b.State() != StateClosed || !b.Allow() {
		t.Fatal("successful probe did not close the breaker")
	}
}

func TestDeadlineForClamps(t *testing.T) {
	cfg := DeadlineConfig{Floor: time.Second, Ceil: 10 * time.Second, PerUnit: 100 * time.Millisecond}
	cases := []struct {
		units int
		want  time.Duration
	}{
		{-5, time.Second},
		{0, time.Second},
		{10, 2 * time.Second},
		{1000, 10 * time.Second},
		{1 << 50, 10 * time.Second}, // overflow clamps to the ceiling
	}
	for _, c := range cases {
		if got := cfg.For(c.units); got != c.want {
			t.Errorf("For(%d) = %v, want %v", c.units, got, c.want)
		}
	}
}

func TestConfigWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.MaxAttempts != 3 {
		t.Errorf("MaxAttempts default %d", c.MaxAttempts)
	}
	if c.Budget.MaxTokens != 64 || c.Budget.RetryCost != 1 {
		t.Errorf("budget defaults %+v", c.Budget)
	}
	if c.Breaker.FailureThreshold != 5 || c.Breaker.OpenFor != 2*time.Second {
		t.Errorf("breaker defaults %+v", c.Breaker)
	}
	if c.Deadline.Floor != 2*time.Second || c.Deadline.Ceil != 60*time.Second {
		t.Errorf("deadline defaults %+v", c.Deadline)
	}
	if c.Backoff.Seed != 1 || c.Backoff.Jitter != 0.2 {
		t.Errorf("backoff defaults %+v", c.Backoff)
	}
}
