//go:build amd64 && !purego

#include "textflag.h"

// func cas128(p *[2]uint64, old0, old1, new0, new1 uint64) bool
//
// LOCK CMPXCHG16B compares RDX:RAX against the 16 bytes at (DI) and, on
// match, stores RCX:RBX. ZF reports success. p must be 16-byte aligned or
// the instruction faults (#GP) — see AlignedUint64s.
TEXT ·cas128(SB), NOSPLIT, $0-41
	MOVQ	p+0(FP), DI
	MOVQ	old0+8(FP), AX
	MOVQ	old1+16(FP), DX
	MOVQ	new0+24(FP), BX
	MOVQ	new1+32(FP), CX
	LOCK
	CMPXCHG16B	(DI)
	SETEQ	ret+40(FP)
	RET

// func prefetch(p unsafe.Pointer)
TEXT ·prefetch(SB), NOSPLIT, $0-8
	MOVQ	p+0(FP), AX
	PREFETCHT0	(AX)
	RET

// func prefetchRange(p unsafe.Pointer, n uintptr) int
//
// One PREFETCHT0 per 64-byte line from the line holding p through the line
// holding p+n-1; nothing for n == 0. Returns the number of lines.
TEXT ·prefetchRange(SB), NOSPLIT, $0-24
	MOVQ	p+0(FP), AX
	MOVQ	n+8(FP), CX
	XORQ	DX, DX
	TESTQ	CX, CX
	JZ	done
	LEAQ	-1(AX)(CX*1), CX	// last byte
	ANDQ	$~63, AX	// its first line
loop:
	PREFETCHT0	(AX)
	INCQ	DX
	ADDQ	$64, AX
	CMPQ	AX, CX
	JLS	loop
done:
	MOVQ	DX, ret+16(FP)
	RET
