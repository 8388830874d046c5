#include "textflag.h"

// The strip kernels, two particles per packed SSE2 instruction. Packed
// IEEE-754 operations round each lane exactly as their scalar forms do, and
// every sum and product below has the operands and association of boris,
// particle.Store.Gamma and the position update x + (p/γ)·dt (an addition's
// two operands may trade places: that is exact), with no fused
// multiply-add, so each lane's bits equal the scalar path's.

// Component offsets in a [6][Strip]float64 field buffer.
#define EY_OFF 512
#define EZ_OFF 1024
#define BX_OFF 1536
#define BY_OFF 2048
#define BZ_OFF 2560

// func borisSSE2(px, py, pz *float64, eb *[6][Strip]float64, n int, qmdt2 float64)
TEXT ·borisSSE2(SB), NOSPLIT, $0-48
	MOVQ  px+0(FP), AX
	MOVQ  py+8(FP), BX
	MOVQ  pz+16(FP), DX
	MOVQ  eb+24(FP), SI
	MOVQ  n+32(FP), DI
	SHLQ  $3, DI
	MOVSD qmdt2+40(FP), X14
	UNPCKLPD X14, X14         // k = qmdt2 in both lanes
	MOVSD $1.0, X13
	UNPCKLPD X13, X13         // 1 in both lanes
	XORQ  CX, CX

boris_loop:
	CMPQ CX, DI
	JGE  boris_done

	// Half electric kick: u = p + k·e.
	MOVUPD (SI)(CX*1), X0
	MULPD  X14, X0
	MOVUPD (AX)(CX*1), X3
	ADDPD  X0, X3             // ux
	MOVUPD EY_OFF(SI)(CX*1), X1
	MULPD  X14, X1
	MOVUPD (BX)(CX*1), X4
	ADDPD  X1, X4             // uy
	MOVUPD EZ_OFF(SI)(CX*1), X2
	MULPD  X14, X2
	MOVUPD (DX)(CX*1), X5
	ADDPD  X2, X5             // uz

	// γ = √(((1 + ux²) + uy²) + uz²)
	MOVAPD X3, X6
	MULPD  X3, X6
	MOVAPD X13, X7
	ADDPD  X6, X7
	MOVAPD X4, X6
	MULPD  X4, X6
	ADDPD  X6, X7
	MOVAPD X5, X6
	MULPD  X5, X6
	ADDPD  X6, X7
	SQRTPD X7, X7             // γ

	// t = (k·b)/γ
	MOVUPD BX_OFF(SI)(CX*1), X8
	MULPD  X14, X8
	DIVPD  X7, X8             // tx
	MOVUPD BY_OFF(SI)(CX*1), X9
	MULPD  X14, X9
	DIVPD  X7, X9             // ty
	MOVUPD BZ_OFF(SI)(CX*1), X10
	MULPD  X14, X10
	DIVPD  X7, X10            // tz

	// 1 + t², t² = (tx² + ty²) + tz²
	MOVAPD X8, X6
	MULPD  X8, X6
	MOVAPD X9, X7
	MULPD  X9, X7
	ADDPD  X7, X6
	MOVAPD X10, X7
	MULPD  X10, X7
	ADDPD  X7, X6
	ADDPD  X13, X6            // 1 + t²

	// s = (2t)/(1 + t²); 2t as t + t, which is exact
	MOVAPD X8, X7
	ADDPD  X8, X7
	DIVPD  X6, X7             // sx
	MOVAPD X9, X11
	ADDPD  X9, X11
	DIVPD  X6, X11            // sy
	MOVAPD X10, X12
	ADDPD  X10, X12
	DIVPD  X6, X12            // sz

	// u' = u + u × t, each component (u + a·b) − c·d
	MOVAPD X4, X0
	MULPD  X10, X0
	ADDPD  X3, X0
	MOVAPD X5, X6
	MULPD  X9, X6
	SUBPD  X6, X0             // u'x = (ux + uy·tz) − uz·ty
	MOVAPD X5, X1
	MULPD  X8, X1
	ADDPD  X4, X1
	MOVAPD X3, X6
	MULPD  X10, X6
	SUBPD  X6, X1             // u'y = (uy + uz·tx) − ux·tz
	MOVAPD X3, X2
	MULPD  X9, X2
	ADDPD  X5, X2
	MOVAPD X4, X6
	MULPD  X8, X6
	SUBPD  X6, X2             // u'z = (uz + ux·ty) − uy·tx

	// u += u' × s, each component u + (a·b − c·d)
	MOVAPD X1, X6
	MULPD  X12, X6
	MOVAPD X2, X8
	MULPD  X11, X8
	SUBPD  X8, X6
	ADDPD  X6, X3             // ux + (u'y·sz − u'z·sy)
	MOVAPD X2, X6
	MULPD  X7, X6
	MOVAPD X0, X8
	MULPD  X12, X8
	SUBPD  X8, X6
	ADDPD  X6, X4             // uy + (u'z·sx − u'x·sz)
	MOVAPD X0, X6
	MULPD  X11, X6
	MOVAPD X1, X8
	MULPD  X7, X8
	SUBPD  X8, X6
	ADDPD  X6, X5             // uz + (u'x·sy − u'y·sx)

	// Half electric kick: p = u + k·e.
	MOVUPD (SI)(CX*1), X6
	MULPD  X14, X6
	ADDPD  X6, X3
	MOVUPD X3, (AX)(CX*1)
	MOVUPD EY_OFF(SI)(CX*1), X6
	MULPD  X14, X6
	ADDPD  X6, X4
	MOVUPD X4, (BX)(CX*1)
	MOVUPD EZ_OFF(SI)(CX*1), X6
	MULPD  X14, X6
	ADDPD  X6, X5
	MOVUPD X5, (DX)(CX*1)

	ADDQ $16, CX
	JMP  boris_loop

boris_done:
	RET

// func advanceSSE2(x, y, z, px, py, pz *float64, n int, dt float64)
TEXT ·advanceSSE2(SB), NOSPLIT, $0-64
	MOVQ  x+0(FP), R8
	MOVQ  y+8(FP), R9
	MOVQ  z+16(FP), R10
	MOVQ  px+24(FP), AX
	MOVQ  py+32(FP), BX
	MOVQ  pz+40(FP), DX
	MOVQ  n+48(FP), DI
	SHLQ  $3, DI
	MOVSD dt+56(FP), X6
	UNPCKLPD X6, X6           // dt in both lanes
	MOVSD $1.0, X7
	UNPCKLPD X7, X7           // 1 in both lanes
	XORQ  CX, CX

advance_loop:
	CMPQ CX, DI
	JGE  advance_done

	// γ = √(1 + ((px² + py²) + pz²))
	MOVUPD (AX)(CX*1), X0
	MOVUPD (BX)(CX*1), X1
	MOVUPD (DX)(CX*1), X2
	MOVAPD X0, X3
	MULPD  X0, X3
	MOVAPD X1, X4
	MULPD  X1, X4
	ADDPD  X4, X3
	MOVAPD X2, X4
	MULPD  X2, X4
	ADDPD  X4, X3
	ADDPD  X7, X3
	SQRTPD X3, X3

	// x += (p/γ)·dt, z only when given
	DIVPD  X3, X0
	MULPD  X6, X0
	MOVUPD (R8)(CX*1), X4
	ADDPD  X0, X4
	MOVUPD X4, (R8)(CX*1)
	DIVPD  X3, X1
	MULPD  X6, X1
	MOVUPD (R9)(CX*1), X4
	ADDPD  X1, X4
	MOVUPD X4, (R9)(CX*1)
	TESTQ  R10, R10
	JZ     advance_next
	DIVPD  X3, X2
	MULPD  X6, X2
	MOVUPD (R10)(CX*1), X4
	ADDPD  X2, X4
	MOVUPD X4, (R10)(CX*1)

advance_next:
	ADDQ $16, CX
	JMP  advance_loop

advance_done:
	RET
