//go:build amd64

package nn

// dot4 computes the four dot products x·w[k·n:(k+1)·n], k = 0..3, with
// n = len(x), into out; w must hold at least 4n elements. On amd64 it is
// the SSE kernel in dot4_amd64.s: one pass over x feeds four output
// neurons, each x load shared by four packed multiply-adds.
//
// Every out[k] is bitwise equal to dot(x, w[k·n:(k+1)·n]). Lane j of row
// k's accumulator is exactly dot's s_j: MULPS and ADDPS round each lane
// like the scalar MULSS and ADDSS the compiler emits for dot, and Go never
// fuses a multiply-add on amd64. The tail accumulates into lane 0 as dot's
// tail does into s0, and the reduction adds ((s0+s1)+s2)+s3, the order Go
// evaluates dot's return expression in. SSE is the amd64 baseline, so no
// runtime feature detection is needed.
//
//go:noescape
func dot4(x, w []float32, out *[4]float32)
