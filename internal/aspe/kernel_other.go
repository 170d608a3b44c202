//go:build !amd64

package aspe

// haveKernel is false off amd64: every sign test runs signTests.
var haveKernel = false

func signKernel(vec *byte, rows *float64, dim int, live uint64, negTol *[scanChunk]float64, qScale float64, sums *[scanChunk]float64) (fail uint64) {
	panic("aspe: signKernel is amd64 only")
}
