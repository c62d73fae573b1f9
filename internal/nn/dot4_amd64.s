//go:build amd64

#include "textflag.h"

// func dot4(x, w []float32, out *[4]float32)
//
// Four float32 dot products over one pass of x. X0..X3 hold the four
// accumulators of rows 0..3 of w, lane j of each being dot's s_j. Each
// iteration loads four elements of x once and multiply-adds them into all
// four rows; the tail runs element-wise into lane 0. The reduction
// transposes the accumulators so one packed add per step forms
// ((s0+s1)+s2)+s3 for all four rows at once. Only len(x) elements of
// each row are read.
TEXT ·dot4(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ w_base+24(FP), DI
	MOVQ out+48(FP), DX
	LEAQ (DI)(CX*4), R9    // row 1
	LEAQ (R9)(CX*4), R10   // row 2
	LEAQ (R10)(CX*4), R11  // row 3
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX           // element index
	MOVQ  CX, BX
	ANDQ  $-4, BX          // SIMD-covered length
	JZ    tail

loop:
	MOVUPS (SI)(AX*4), X4
	MOVUPS (DI)(AX*4), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS (R9)(AX*4), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS (R10)(AX*4), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS (R11)(AX*4), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    loop

tail:
	CMPQ  AX, CX
	JGE   reduce
	MOVSS (SI)(AX*4), X4
	MOVSS (DI)(AX*4), X5
	MULSS X4, X5
	ADDSS X5, X0           // lane 0 only: s0 += x·w
	MOVSS (R9)(AX*4), X6
	MULSS X4, X6
	ADDSS X6, X1
	MOVSS (R10)(AX*4), X7
	MULSS X4, X7
	ADDSS X7, X2
	MOVSS (R11)(AX*4), X8
	MULSS X4, X8
	ADDSS X8, X3
	INCQ  AX
	JMP   tail

reduce:
	// Transpose rows X0..X3 into columns: X4 = s0, X5 = s1, X6 = s2 and
	// X7 = s3 of rows 0..3.
	MOVAPS   X0, X4
	UNPCKLPS X1, X4        // r0.s0 r1.s0 r0.s1 r1.s1
	MOVAPS   X2, X5
	UNPCKLPS X3, X5        // r2.s0 r3.s0 r2.s1 r3.s1
	MOVAPS   X0, X6
	UNPCKHPS X1, X6        // r0.s2 r1.s2 r0.s3 r1.s3
	MOVAPS   X2, X7
	UNPCKHPS X3, X7        // r2.s2 r3.s2 r2.s3 r3.s3
	MOVAPS   X4, X0
	MOVLHPS  X5, X0        // s0 of rows 0..3
	MOVHLPS  X4, X5        // s1 of rows 0..3
	MOVAPS   X6, X1
	MOVLHPS  X7, X1        // s2 of rows 0..3
	MOVHLPS  X6, X7        // s3 of rows 0..3
	ADDPS    X5, X0
	ADDPS    X1, X0
	ADDPS    X7, X0
	MOVUPS   X0, (DX)
	RET
