package aspe

// haveKernel reports whether the host runs signKernel: AVX2, and an OS
// that saves the YMM registers (OSXSAVE set, XCR0 bits 1 and 2). Read
// once at init.
var haveKernel = hasAVX2()

// signKernel runs one query vector's sign test on the live events,
// reading vec — the vector's dim little-endian float64s, as the arena
// holds them — in place, and the events' points k-major from rows
// (coordinate k of event i at rows[k*scanChunk+i]). It returns the
// events that fail, vec · point < negTol[i]·qScale, and writes every
// computed sum to sums, Dot's to the bit; lanes of events not in live
// are computed too and neither returned nor meaningful. dim ≥ 1.
//
//go:noescape
func signKernel(vec *byte, rows *float64, dim int, live uint64, negTol *[scanChunk]float64, qScale float64, sums *[scanChunk]float64) (fail uint64)

func hasAVX2() bool
