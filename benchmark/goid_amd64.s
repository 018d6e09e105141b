#include "textflag.h"

// func goid() uintptr
TEXT ·goid(SB),NOSPLIT,$0-8
	MOVQ (TLS), AX
	MOVQ AX, ret+0(FP)
	RET
