// Package stats provides the statistical machinery the rejuvenation
// algorithms and experiments rely on: streaming moments (Welford),
// histograms, autocorrelation, confidence intervals, the
// standard normal distribution functions (density, CDF, inverse CDF),
// and goodness-of-fit tests (Kolmogorov–Smirnov, χ² over equiprobable
// cells, two-sample Anderson–Darling) built on the regularized
// incomplete gamma functions.
//
// Two constraints shape the package. First, determinism: it sits
// inside rejuvlint's determinism scope because its outputs become
// committed results/ numbers and conformance verdicts — estimators are
// streaming or order-stable, and nothing here reads a clock or global
// RNG. Second, self-containment: the paper's evaluation needs exactly
// these estimators and no more, so the implementations are small,
// auditable translations of the textbook formulas (the nontrivial
// ones cite their sources) rather than bindings to a statistics
// library whose internals we could not pin. The Welford accumulator
// supports Merge so the parallel replication engine can fold
// per-worker state in deterministic order.
package stats

import "math"

// NormPDF returns the density of the Normal(mu, sigma^2) distribution at x.
// It panics if sigma <= 0.
func NormPDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		panic("stats: NormPDF sigma must be positive")
	}
	z := (x - mu) / sigma
	return math.Exp(-z*z/2) / (sigma * math.Sqrt(2*math.Pi))
}

// NormCDF returns P(X <= x) for X ~ Normal(mu, sigma^2).
// It panics if sigma <= 0.
func NormCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		panic("stats: NormCDF sigma must be positive")
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// NormQuantile returns the p-quantile of the Normal(mu, sigma^2)
// distribution. It panics if p is outside (0, 1) or sigma <= 0.
func NormQuantile(p, mu, sigma float64) float64 {
	if sigma <= 0 {
		panic("stats: NormQuantile sigma must be positive")
	}
	return mu + sigma*StdNormQuantile(p)
}

// StdNormQuantile returns the p-quantile of the standard normal
// distribution using Wichura's algorithm AS 241 (PPND16), accurate to
// about 1e-15 over the full open interval. It panics if p is outside
// (0, 1), since quantiles at 0 and 1 are infinite.
func StdNormQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: StdNormQuantile p must be in (0,1)")
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		// Central region: rational approximation in q^2.
		r := 0.180625 - q*q
		num := (((((((2.5090809287301226727e3*r+3.3430575583588128105e4)*r+
			6.7265770927008700853e4)*r+4.5921953931549871457e4)*r+
			1.3731693765509461125e4)*r+1.9715909503065514427e3)*r+
			1.3314166789178437745e2)*r + 3.3871328727963666080e0)
		den := (((((((5.2264952788528545610e3*r+2.8729085735721942674e4)*r+
			3.9307895800092710610e4)*r+2.1213794301586595867e4)*r+
			5.3941960214247511077e3)*r+6.8718700749205790830e2)*r+
			4.2313330701600911252e1)*r + 1.0)
		return q * num / den
	}
	// Tail regions: rational approximations in sqrt(-log(tail)).
	r := p
	if q > 0 {
		r = 1 - p
	}
	r = math.Sqrt(-math.Log(r))
	var x float64
	if r <= 5 {
		r -= 1.6
		num := (((((((7.74545014278341407640e-4*r+2.27238449892691845833e-2)*r+
			2.41780725177450611770e-1)*r+1.27045825245236838258e0)*r+
			3.64784832476320460504e0)*r+5.76949722146069140550e0)*r+
			4.63033784615654529590e0)*r + 1.42343711074968357734e0)
		den := (((((((1.05075007164441684324e-9*r+5.47593808499534494600e-4)*r+
			1.51986665636164571966e-2)*r+1.48103976427480074590e-1)*r+
			6.89767334985100004550e-1)*r+1.67638483018380384940e0)*r+
			2.05319162663775882187e0)*r + 1.0)
		x = num / den
	} else {
		r -= 5
		num := (((((((2.01033439929228813265e-7*r+2.71155556874348757815e-5)*r+
			1.24266094738807843860e-3)*r+2.65321895265761230930e-2)*r+
			2.96560571828504891230e-1)*r+1.78482653991729133580e0)*r+
			5.46378491116411436990e0)*r + 6.65790464350110377720e0)
		den := (((((((2.04426310338993978564e-15*r+1.42151175831644588870e-7)*r+
			1.84631831751005468180e-5)*r+7.86869131145613259100e-4)*r+
			1.48753612908506148525e-2)*r+1.36929880922735805310e-1)*r+
			5.99832206555887937690e-1)*r + 1.0)
		x = num / den
	}
	if q < 0 {
		return -x
	}
	return x
}
