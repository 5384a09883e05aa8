package conformance

import (
	"math"
	"sync"
	"testing"

	"rejuv/internal/experiment"
	"rejuv/internal/mmc"
	"rejuv/internal/stats"
)

// Oracle tests: the Section-3 simulator in its pure M/M/c configuration
// against the Section-4.1 closed forms. The configuration is the
// paper's validation system — c=16, mu=0.2 — at offered load 6
// (lambda=1.2, rho=0.375), where the queue is light enough that a
// 10-stride thinning leaves the serial correlation of consecutive
// sojourn times negligible against the Bonferroni-corrected
// thresholds. Every sample is seed-pinned: the suite's p-values are
// constants of the repository, not random variables of the CI run.

// oracleSystem returns the pinned M/M/c oracle configuration.
func oracleSystem(t *testing.T) mmc.System {
	t.Helper()
	sys, err := mmc.New(16, 1.2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// oracleMatrix is the replication matrix, reduced under -short.
type oracleMatrix struct {
	reps   int
	txns   int64
	warmup int
	thin   int
}

func matrix() oracleMatrix {
	if testing.Short() {
		return oracleMatrix{reps: 3, txns: 8_000, warmup: 1_000, thin: 10}
	}
	return oracleMatrix{reps: 8, txns: 25_000, warmup: 2_000, thin: 10}
}

// simPool lazily builds the pooled thinned simulator sample once per
// process and matrix, through the replication engine so the pool is
// bit-identical whatever GOMAXPROCS is.
var simPool struct {
	sync.Mutex
	pools map[bool]*Pool
}

func pooledSimSample(t *testing.T) *Pool {
	t.Helper()
	simPool.Lock()
	defer simPool.Unlock()
	if simPool.pools == nil {
		simPool.pools = make(map[bool]*Pool)
	}
	if p, ok := simPool.pools[testing.Short()]; ok {
		return p
	}
	sys := oracleSystem(t)
	m := matrix()
	pool := &Pool{}
	err := experiment.Run(0, m.reps,
		func(rep int) ([]float64, error) {
			// Seed pinned, stream distinct per replication.
			return SimSample(sys, 20260806, 100+uint64(rep), m.txns, m.warmup, m.thin)
		},
		func(_ int, vs []float64) error { pool.add(vs); return nil })
	if err != nil {
		t.Fatal(err)
	}
	simPool.pools[testing.Short()] = pool
	return pool
}

// mustAlpha draws one Bonferroni-corrected significance level from the
// suite budget.
func mustAlpha(t *testing.T) float64 {
	t.Helper()
	a, err := Alpha()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestOracleResponseTimeKS pins the simulator's empirical response-time
// distribution against paper eq. (1) with the Kolmogorov-Smirnov test.
func TestOracleResponseTimeKS(t *testing.T) {
	sys := oracleSystem(t)
	pool := pooledSimSample(t)
	alpha := mustAlpha(t)
	d, p, ok, err := stats.KSTest(pool.Values, sys.RTCDF, alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle eq.(1) KS: n=%d D=%.5f p=%.4f alpha=%.2e", len(pool.Values), d, p, alpha)
	if !ok {
		t.Fatalf("simulator response times reject eq. (1): D=%v p=%v (n=%d)", d, p, len(pool.Values))
	}
}

// TestOracleResponseTimeChiSquare repeats the pin with the chi-square
// goodness-of-fit test on 20 equiprobable cells of eq. (1) — sensitive
// to local density misfits KS smooths over.
func TestOracleResponseTimeChiSquare(t *testing.T) {
	sys := oracleSystem(t)
	pool := pooledSimSample(t)
	alpha := mustAlpha(t)
	const cells = 20
	edges := make([]float64, cells-1)
	for i := range edges {
		q, err := sys.RTQuantile(float64(i+1) / cells)
		if err != nil {
			t.Fatal(err)
		}
		edges[i] = q
	}
	stat, p, ok, err := stats.ChiSquareTest(pool.Values, edges, sys.RTCDF, alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle eq.(1) chi-square: n=%d cells=%d stat=%.2f p=%.4f alpha=%.2e", len(pool.Values), cells, stat, p, alpha)
	if !ok {
		t.Fatalf("simulator response times reject eq. (1) by chi-square: stat=%v p=%v", stat, p)
	}
}

// TestOracleResponseTimeAD tests simulator output against an iid sample
// drawn from the closed-form mixture itself — the two-sample
// Anderson-Darling test, which weights the tails where the M/M/c
// mixture and a buggy simulator would most plausibly disagree.
func TestOracleResponseTimeAD(t *testing.T) {
	sys := oracleSystem(t)
	pool := pooledSimSample(t)
	alpha := mustAlpha(t)
	ref := AnalyticSample(sys, 20260806, 500, len(pool.Values))
	a2, p, ok, err := stats.ADTwoSampleTest(pool.Values, ref, alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle eq.(1) two-sample AD: n=%d A²=%.3f p=%.4f alpha=%.2e", len(pool.Values), a2, p, alpha)
	if !ok {
		t.Fatalf("simulator vs analytic sample reject common law: A²=%v p=%v", a2, p)
	}
}

// TestOracleMeanAndVariance pins the pooled sample moments against
// paper eq. (2) and (3) within standard-error bands scaled to the
// Bonferroni-corrected normal quantile.
func TestOracleMeanAndVariance(t *testing.T) {
	sys := oracleSystem(t)
	pool := pooledSimSample(t)
	alpha := mustAlpha(t)
	z := stats.StdNormQuantile(1 - alpha/2)
	n := float64(pool.Moments.N())

	wantMean := sys.RTMean()
	se := pool.Moments.StdErr()
	if d := math.Abs(pool.Moments.Mean() - wantMean); d > z*se {
		t.Errorf("pooled mean %v vs eq.(2) %v: |diff|=%v > %v", pool.Moments.Mean(), wantMean, d, z*se)
	}
	// Variance of the sample variance for a near-exponential mixture:
	// use the asymptotic se(s²) ≈ s²·sqrt((kurtosis-1)/n) with the
	// conservative exponential excess kurtosis 6.
	wantVar := sys.RTVar()
	seVar := pool.Moments.Var() * math.Sqrt(8/n)
	if d := math.Abs(pool.Moments.Var() - wantVar); d > z*seVar {
		t.Errorf("pooled variance %v vs eq.(3) %v: |diff|=%v > %v", pool.Moments.Var(), wantVar, d, z*seVar)
	}
	t.Logf("oracle eq.(2)/(3): mean %.4f vs %.4f, var %.4f vs %.4f (n=%.0f)", pool.Moments.Mean(), wantMean, pool.Moments.Var(), wantVar, n)
}

// avgCDF adapts AvgRTCDF to a plain CDF, latching the first error.
func avgCDF(t *testing.T, sys mmc.System, n int) func(float64) float64 {
	t.Helper()
	return func(x float64) float64 {
		v, err := sys.AvgRTCDF(n, x)
		if err != nil {
			t.Fatalf("AvgRTCDF(%d, %v): %v", n, x, err)
		}
		return v
	}
}

// TestOracleXbarPhaseTypeMoments pins the Fig. 4 chain's closed-form
// moments against eq. (2)/(3): E[X̄n] = E[RT] and Var[X̄n] = Var[RT]/n,
// with no sampling involved — a pure analytic consistency oracle.
func TestOracleXbarPhaseTypeMoments(t *testing.T) {
	sys := oracleSystem(t)
	for _, n := range []int{1, 5, 15, 30} {
		ph, err := sys.AvgRTPhaseType(n)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(ph.Mean() - sys.RTMean()); d > 1e-8*sys.RTMean() {
			t.Errorf("n=%d: X̄ phase-type mean %v vs eq.(2) %v", n, ph.Mean(), sys.RTMean())
		}
		wantVar := sys.RTVar() / float64(n)
		if d := math.Abs(ph.Var() - wantVar); d > 1e-8*wantVar {
			t.Errorf("n=%d: X̄ phase-type variance %v vs eq.(3)/n %v", n, ph.Var(), wantVar)
		}
	}
}

// TestOracleXbarAnalyticSampleKS draws iid response times from the
// closed-form mixture, forms X̄15 block means, and tests them against
// the eq. (4) absorption-time CDF — validating the uniformization path
// of the CTMC machinery against an independent sampling path.
func TestOracleXbarAnalyticSampleKS(t *testing.T) {
	sys := oracleSystem(t)
	alpha := mustAlpha(t)
	const blockN = 15
	n := 30_000
	if testing.Short() {
		n = 9_000
	}
	xs := AnalyticSample(sys, 20260806, 600, n)
	means, err := BlockMeans(xs, blockN)
	if err != nil {
		t.Fatal(err)
	}
	d, p, ok, err := stats.KSTest(means, avgCDF(t, sys, blockN), alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle eq.(4) analytic X̄%d KS: blocks=%d D=%.5f p=%.4f alpha=%.2e", blockN, len(means), d, p, alpha)
	if !ok {
		t.Fatalf("analytic X̄%d rejects eq. (4): D=%v p=%v (blocks=%d)", blockN, d, p, len(means))
	}
}

// TestOracleXbarSimulatorKS is the end-to-end X̄n pillar: block means
// of the thinned simulator sample against the eq. (4) CDF. This chains
// simulator → thinning → blocking → uniformized CTMC in one test.
func TestOracleXbarSimulatorKS(t *testing.T) {
	sys := oracleSystem(t)
	pool := pooledSimSample(t)
	alpha := mustAlpha(t)
	const blockN = 15
	means, err := BlockMeans(pool.Values, blockN)
	if err != nil {
		t.Fatal(err)
	}
	d, p, ok, err := stats.KSTest(means, avgCDF(t, sys, blockN), alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle eq.(4) simulator X̄%d KS: blocks=%d D=%.5f p=%.4f alpha=%.2e", blockN, len(means), d, p, alpha)
	if !ok {
		t.Fatalf("simulator X̄%d rejects eq. (4): D=%v p=%v (blocks=%d)", blockN, d, p, len(means))
	}
}

// TestOracleXbarChiSquare closes the X̄n pillar with a chi-square test
// of the analytic block means on 12 equiprobable cells of the eq. (4)
// CDF (cell edges found by bisection on the CDF).
func TestOracleXbarChiSquare(t *testing.T) {
	sys := oracleSystem(t)
	alpha := mustAlpha(t)
	const blockN = 15
	n := 30_000
	if testing.Short() {
		n = 9_000
	}
	xs := AnalyticSample(sys, 20260806, 700, n)
	means, err := BlockMeans(xs, blockN)
	if err != nil {
		t.Fatal(err)
	}
	cdf := avgCDF(t, sys, blockN)
	const cells = 12
	edges := make([]float64, cells-1)
	for i := range edges {
		target := float64(i+1) / cells
		lo, hi := 0.0, 60.0
		for cdf(hi) < target {
			hi *= 2
		}
		for it := 0; it < 100; it++ {
			mid := (lo + hi) / 2
			if cdf(mid) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		edges[i] = (lo + hi) / 2
	}
	stat, p, ok, err := stats.ChiSquareTest(means, edges, cdf, alpha)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("oracle eq.(4) X̄%d chi-square: blocks=%d cells=%d stat=%.2f p=%.4f alpha=%.2e", blockN, len(means), cells, stat, p, alpha)
	if !ok {
		t.Fatalf("analytic X̄%d rejects eq. (4) by chi-square: stat=%v p=%v", blockN, stat, p)
	}
}
