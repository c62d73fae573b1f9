//go:build !amd64

package nn

// dot4 computes the four dot products x·w[k·n:(k+1)·n], k = 0..3, with
// n = len(x), into out; w must hold at least 4n elements. On
// architectures without a SIMD kernel it is four calls of dot.
func dot4(x, w []float32, out *[4]float32) {
	n := len(x)
	for k := range out {
		out[k] = dot(x, w[k*n:(k+1)*n])
	}
}
