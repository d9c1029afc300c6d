// Package resilience is the cluster/serving tier's failure-handling
// policy kit: retry budgets, exponential backoff with deterministic
// jitter, circuit breakers and per-RPC deadline derivation. It is
// stdlib-only, allocation-light and — deliberately — deterministic:
// every jittered delay is a pure function of a seed and an attempt
// number, so chaos tests can assert exact retry schedules and total
// attempt counts instead of sleeping and hoping.
//
// The pieces compose but do not know about each other:
//
//   - Budget is a process-wide retry token bucket: bounded attempts per
//     call stop one sick RPC from spinning, the budget stops a dying
//     fleet from multiplying that across every call (retry storms).
//   - BackoffConfig.Next spaces the attempts that are allowed.
//   - Breaker stops routing to an endpoint that keeps failing, probes
//     it after a cool-down, and heals on the first success.
//   - DeadlineConfig.For turns a work size (tiles, points) into a
//     bounded per-RPC deadline so no call can hang a scheduler slot.
//
// internal/cluster wires all four around its coordinator RPCs;
// internal/gateway uses Breaker for replica liveness. DESIGN.md §18
// documents the policy semantics.
package resilience

import (
	"math"
	"time"
)

// Config bundles the policy knobs one client (the cluster coordinator)
// needs. The zero value selects production defaults; see WithDefaults.
type Config struct {
	// MaxAttempts bounds RPC attempts per call against one endpoint,
	// first try included (default 3). Retries beyond the first attempt
	// also consume Budget tokens.
	MaxAttempts int
	// Budget configures the global retry token bucket.
	Budget BudgetConfig
	// Backoff spaces retry attempts.
	Backoff BackoffConfig
	// Breaker configures the per-endpoint (per-worker) breakers.
	Breaker BreakerConfig
	// Deadline derives per-RPC timeouts from work size.
	Deadline DeadlineConfig
}

// WithDefaults resolves every zero field to its production default.
func (c Config) WithDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	c.Budget = c.Budget.withDefaults()
	c.Backoff = c.Backoff.withDefaults()
	c.Breaker = c.Breaker.withDefaults()
	c.Deadline = c.Deadline.withDefaults()
	return c
}

// DeadlineConfig derives a per-RPC deadline from the size of the work
// the RPC carries: d = clamp(Floor + PerUnit·units, Floor, Ceil). The
// unit is whatever the caller meters (the coordinator uses tiles for
// eval RPCs and point-blocks for init RPCs); the floor keeps small RPCs
// from flapping on scheduling noise and the ceiling bounds how long a
// hung endpoint can pin a scheduler slot.
type DeadlineConfig struct {
	// Floor is the minimum deadline granted to any RPC (default 2s).
	Floor time.Duration
	// Ceil is the maximum deadline however large the work (default 60s).
	Ceil time.Duration
	// PerUnit is the time granted per work unit (default 25ms).
	PerUnit time.Duration
}

func (c DeadlineConfig) withDefaults() DeadlineConfig {
	if c.Floor <= 0 {
		c.Floor = 2 * time.Second
	}
	if c.Ceil <= 0 {
		c.Ceil = 60 * time.Second
	}
	if c.Ceil < c.Floor {
		c.Ceil = c.Floor
	}
	if c.PerUnit <= 0 {
		c.PerUnit = 25 * time.Millisecond
	}
	return c
}

// For returns the derived deadline for an RPC carrying units of work.
// Negative unit counts clamp to zero.
func (c DeadlineConfig) For(units int) time.Duration {
	c = c.withDefaults()
	if units < 0 {
		units = 0
	}
	d := c.Floor + time.Duration(units)*c.PerUnit
	if d > c.Ceil || d < 0 { // d < 0: overflow on absurd unit counts
		d = c.Ceil
	}
	return d
}

// BackoffConfig is an exponential backoff schedule with deterministic
// jitter: delay(attempt) = min(Base·Factor^(attempt-1), Max), scaled by
// a jitter factor in [1−Jitter, 1+Jitter] drawn from a splitmix64
// stream over (Seed, attempt). Next is a pure function — two calls with
// the same config and attempt return the same duration — which is what
// lets the chaos harness assert retry schedules exactly.
type BackoffConfig struct {
	// Base is the first retry's nominal delay (default 50ms).
	Base time.Duration
	// Max caps the nominal delay growth (default 2s).
	Max time.Duration
	// Factor is the per-attempt growth multiplier (default 2).
	Factor float64
	// Jitter is the ± fraction applied to the nominal delay (default
	// 0.2; 0 keeps jitter on at the default — use a negative value for
	// a strictly jitter-free schedule).
	Jitter float64
	// Seed selects the deterministic jitter stream (default 1).
	Seed uint64
}

func (c BackoffConfig) withDefaults() BackoffConfig {
	if c.Base <= 0 {
		c.Base = 50 * time.Millisecond
	}
	if c.Max <= 0 {
		c.Max = 2 * time.Second
	}
	if c.Max < c.Base {
		c.Max = c.Base
	}
	if c.Factor < 1 || math.IsNaN(c.Factor) || math.IsInf(c.Factor, 0) {
		c.Factor = 2
	}
	switch {
	case c.Jitter < 0 || math.IsNaN(c.Jitter):
		c.Jitter = 0
	case c.Jitter == 0:
		c.Jitter = 0.2
	case c.Jitter > 1:
		c.Jitter = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Next returns the delay before retry attempt (1-based: attempt 1 is
// the delay after the first failure). It is deterministic in (config,
// attempt) and never exceeds Max·(1+Jitter).
func (c BackoffConfig) Next(attempt int) time.Duration {
	c = c.withDefaults()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(c.Base)
	for i := 1; i < attempt; i++ {
		d *= c.Factor
		if d >= float64(c.Max) {
			d = float64(c.Max)
			break
		}
	}
	if c.Jitter > 0 {
		u := float64(splitmix64(c.Seed^(uint64(attempt)*0x9e3779b97f4a7c15))>>11) / (1 << 53)
		d *= 1 - c.Jitter + 2*c.Jitter*u
	}
	return time.Duration(d)
}

// splitmix64 is the SplitMix64 output function: a bijective avalanche
// over 64 bits, good enough for jitter and fault sampling and free of
// shared state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
