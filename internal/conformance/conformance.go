// Package conformance is the statistical safety net of the repository:
// executable cross-checks between the Section-3 simulator and the
// Section-4.1 analytics, metamorphic laws for every detector family in
// internal/core, and a deterministic parallel replication engine that
// makes hundreds of replications affordable inside go test.
//
// The package has three layers:
//
//   - Oracle tests (oracle.go + oracle tests) drive internal/ecommerce
//     in pure M/M/c steady state and test the empirical response-time
//     distribution against the internal/mmc closed forms — paper eq. (1)
//     via Kolmogorov-Smirnov, chi-square and two-sample
//     Anderson-Darling, eq. (2)/(3) via moment comparisons, and the
//     X̄n absorption-time distribution of eq. (4) via the phase-type
//     CDF.
//
//   - Metamorphic laws (harness.go + law tests) assert transformation
//     properties no detector may violate: scale invariance under affine
//     re-parameterization, permutation invariance inside a sample
//     window, monotone sensitivity to pointwise-worse traces, the
//     SARAA-before-SRAA acceleration ordering, and CLTA's quantile
//     arithmetic. Every law run is journaled and replayed through
//     internal/journal, so each one doubles as a flight-recorder
//     determinism proof.
//
//   - The replication engine (engine.go) fans replication bodies out
//     over a worker pool and folds results back in replication order,
//     so pooled floating-point statistics are bit-identical regardless
//     of worker count.
//
// Statistical tests are seed-pinned: every sample in the suite comes
// from a fixed xrand seed, so a test that passes once passes forever —
// CI never sees a statistical flake. The residual role of significance
// levels is to budget sensitivity to future seed churn, which Alpha
// centralizes via a Bonferroni correction over the whole suite.
package conformance

import (
	"fmt"
	"sync/atomic"
)

// FamilyAlpha is the family-wise false-positive budget of the entire
// conformance suite: if every seed in the suite were redrawn, the
// probability that any statistical test rejects a correct
// implementation stays below this value.
const FamilyAlpha = 0.01

// StatTestBudget is the maximum number of statistical hypothesis tests
// the suite may run. The Bonferroni-corrected per-test level is
// FamilyAlpha / StatTestBudget; keeping the divisor a compile-time
// constant (rather than counting tests at runtime) makes every
// threshold independent of test order and of -run selections.
const StatTestBudget = 64

// statTestsUsed counts Alpha draws so the budget is enforceable.
var statTestsUsed atomic.Int64

// Alpha returns the Bonferroni-corrected significance level every
// statistical test in the suite must use, and errors when the suite
// has drawn more tests than StatTestBudget — the signal that the
// budget constant (and with it every threshold) needs revisiting.
func Alpha() (float64, error) {
	if n := statTestsUsed.Add(1); n > StatTestBudget {
		return 0, fmt.Errorf("conformance: statistical test %d exceeds the budget of %d; raise StatTestBudget deliberately", n, StatTestBudget)
	}
	return FamilyAlpha / StatTestBudget, nil
}
