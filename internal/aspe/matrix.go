// Package aspe implements the paper's software-only baseline:
// asymmetric scalar-product-preserving encryption (ASPE, Choi et al.
// [7], after Wong et al.), enhanced with the Bloom-filter
// pre-filtering of Barazzutti et al. [4] ("thrifty privacy").
//
// Publications become points p̂ in an extended vector space and each
// subscription bound becomes a hyperplane sign test. With a secret
// invertible matrix M, points are encrypted as M^T·p̂ and query vectors
// as M⁻¹·q̂, so dot products — and therefore the sign tests — are
// preserved exactly while both sides remain encrypted. Matching cost
// per subscription is Θ(#bounds × dimensions) in vector reads, which
// grows quadratically with the attribute count — the behaviour that
// makes ASPE fall an order of magnitude behind SCBR in Figure 7 and
// degrade fastest on the ×2/×4-attribute workloads. A subscription
// stores its bound tests first and its presence tests last, so a
// presence test is read only for the events still live after every
// bound.
//
// Semantics are the scheme's, not SCBR's: bounds are closed (ASPE
// cannot express strict inequalities — one of the "degraded forms of
// range queries" limitations the paper cites), and absent attributes
// are handled with presence dimensions.
package aspe

import (
	"errors"
	"fmt"
	"math/rand"
)

// Matrix is a dense square matrix in row-major order.
type Matrix struct {
	N    int
	Data []float64
}

// NewMatrix allocates an N×N zero matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// MulVec computes dst = M · v.
func (m *Matrix) MulVec(dst, v []float64) {
	n := m.N
	for i := 0; i < n; i++ {
		sum := 0.0
		row := m.Data[i*n : (i+1)*n]
		for j, x := range v {
			sum += row[j] * x
		}
		dst[i] = sum
	}
}

// TMulVec computes dst = Mᵀ · v.
func (m *Matrix) TMulVec(dst, v []float64) {
	n := m.N
	for i := 0; i < n; i++ {
		dst[i] = 0
	}
	for j := 0; j < n; j++ {
		row := m.Data[j*n : (j+1)*n]
		x := v[j]
		for i := 0; i < n; i++ {
			dst[i] += row[i] * x
		}
	}
}

// ErrSingular is returned when inversion meets a (near-)singular
// matrix.
var ErrSingular = errors.New("aspe: singular matrix")

// Inverse computes M⁻¹ by Gauss-Jordan elimination with partial
// pivoting.
func (m *Matrix) Inverse() (*Matrix, error) {
	n := m.N
	a := make([]float64, len(m.Data))
	copy(a, m.Data)
	inv := NewMatrix(n)
	for i := 0; i < n; i++ {
		inv.Set(i, i, 1)
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := abs(a[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return nil, fmt.Errorf("%w: pivot %e at column %d", ErrSingular, best, col)
		}
		if pivot != col {
			swapRows(a, n, pivot, col)
			swapRows(inv.Data, n, pivot, col)
		}
		// Scale pivot row.
		p := a[col*n+col]
		for j := 0; j < n; j++ {
			a[col*n+j] /= p
			inv.Data[col*n+j] /= p
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r*n+col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a[r*n+j] -= f * a[col*n+j]
				inv.Data[r*n+j] -= f * inv.Data[col*n+j]
			}
		}
	}
	return inv, nil
}

// NewRandomInvertible draws a random well-conditioned matrix: uniform
// entries in [-1, 1) with a boosted diagonal, which keeps Gauss-Jordan
// stable at the dimensions ASPE uses (d up to ~90).
func NewRandomInvertible(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.Float64()*2 - 1
			if i == j {
				v += 2 * float64(n) / 8
			}
			m.Set(i, j, v)
		}
	}
	return m
}

func swapRows(a []float64, n, r1, r2 int) {
	for j := 0; j < n; j++ {
		a[r1*n+j], a[r2*n+j] = a[r2*n+j], a[r1*n+j]
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	sum := 0.0
	for i, x := range a {
		sum += x * b[i]
	}
	return sum
}
