# allforms.s — every instruction, pseudo-instruction and directive the text
# assembler accepts, once each. TestAssembleAllForms assembles it; the
# assembled bytes are pinned with every other .s file by
# internal/barrier's TestAssembledBytesGolden.
	add x1, x2, x3
	addi t0, t1, -5
	li a0, 0x7fffffff
	la a1, d
	mv s0, s1
	ld t2, 8(sp)
	st t3, -8(sp)
	lw t4, 0(sp)
	sw t5, 4(sp)
	lh a2, 2(sp)
	sh a3, 6(sp)
	fld f1, 0(sp)
	fst f2, 8(sp)
	ll t0, 0(a0)
	sc t1, t2, 0(a0)
	fadd f0, f1, f2
	fsub f3, f4, f5
	fmul f6, f7, f8
	fdiv f9, f10, f11
	fneg f1, f2
	fabs f3, f4
	fmov f5, f6
	feq t0, f1, f2
	flt t1, f3, f4
	fle t2, f5, f6
	itof f7, t3
	ftoi t4, f8
	beq t0, t1, l1
	bne t0, t1, l1
	blt t0, t1, l1
	bge t0, t1, l1
	bltu t0, t1, l1
	bgeu t0, t1, l1
	bgt t0, t1, l1
	ble t0, t1, l1
	beqz t0, l1
	bnez t0, l1
l1:
	jal ra, l1
	jalr x0, 0(ra)
	j l1
	call l1
	ret
	fence
	iflush
	icbi 0(s6)
	dcbi 64(s7)
	hwbar 2
	nop
	out a0
	halt
	.data
d:
	.quad 1, 2, 3
	.double 3.14
	.space 16
