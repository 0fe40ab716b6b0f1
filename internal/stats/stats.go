// Package stats provides the statistical machinery behind CounterPoint's
// counter confidence regions (paper §4):
//
//   - sample means and covariance matrices of HEC time series;
//   - Pearson correlation (used to quantify how strongly HECs co-move —
//     over 25% of counter pairs on Haswell exceed ρ = 0.9);
//   - symmetric eigendecomposition of covariance matrices: rows with no
//     off-diagonal entry (constant counters, Independent mode) deflate to
//     exact unit axes, and the rest is Householder tridiagonalisation plus
//     implicit QL;
//   - χ² quantiles via the regularised incomplete gamma function;
//   - confidence ellipsoids and their principal-axis bounding boxes, the
//     linear encoding used by the feasibility LP (Appendix A).
package stats

import (
	"math"
)

// Mean returns the column means of samples (rows = observations).
func Mean(samples [][]float64) []float64 {
	if len(samples) == 0 {
		return nil
	}
	n := len(samples[0])
	mean := make([]float64, n)
	for _, row := range samples {
		for i, x := range row {
			mean[i] += x
		}
	}
	inv := 1.0 / float64(len(samples))
	for i := range mean {
		mean[i] *= inv
	}
	return mean
}

// Covariance returns the sample covariance matrix Σ_Y of samples (rows =
// observations, columns = counters), using the unbiased (M−1) normaliser
// when M > 1.
func Covariance(samples [][]float64) [][]float64 {
	m := len(samples)
	if m == 0 {
		return nil
	}
	n := len(samples[0])
	mean := Mean(samples)
	cov := make([][]float64, n)
	for i := range cov {
		cov[i] = make([]float64, n)
	}
	if m < 2 {
		return cov
	}
	for _, row := range samples {
		for i := 0; i < n; i++ {
			di := row[i] - mean[i]
			if di == 0 {
				continue
			}
			for j := i; j < n; j++ {
				cov[i][j] += di * (row[j] - mean[j])
			}
		}
	}
	inv := 1.0 / float64(m-1)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			cov[i][j] *= inv
			cov[j][i] = cov[i][j]
		}
	}
	return cov
}

// Correlation converts a covariance matrix to a Pearson correlation matrix.
// Zero-variance rows/columns yield zero correlations (self-correlation 1).
func Correlation(cov [][]float64) [][]float64 {
	n := len(cov)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		out[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := cov[i][i] * cov[j][j]
			if d <= 0 {
				continue
			}
			r := cov[i][j] / math.Sqrt(d)
			out[i][j] = r
			out[j][i] = r
		}
	}
	return out
}

// FractionPairsAbove returns the fraction of distinct counter pairs whose
// absolute Pearson correlation exceeds threshold (paper §7.1: >25% of pairs
// exceed 0.9 on the Haswell corpus).
func FractionPairsAbove(corr [][]float64, threshold float64) float64 {
	n := len(corr)
	if n < 2 {
		return 0
	}
	count, total := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if math.Abs(corr[i][j]) > threshold {
				count++
			}
		}
	}
	return float64(count) / float64(total)
}
