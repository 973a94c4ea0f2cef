# corpus: want=dyn-partition-overlap at=loop threads=4 dynrace=true
#
# Skewed dynamic partitions: stride 64, but each thread writes (len&63)+96
# bytes, a bounded data-dependent span that always exceeds the stride, so
# neighbours overlap. The loop bound narrows back through the blt after the
# head widens.
	.data
len:	.quad 0
	.text
kern:
	la   t0, len
	ld   t1, 0(t0)
	andi t1, t1, 63
	addi t1, t1, 96        # span in [96,159] > stride 64
	li   t2, 64
	mul  t2, t2, a0
	li   t3, 0x1000200
	add  t2, t2, t3        # partition base
	add  t3, t2, t1        # partition end
loop:
	st   a0, 0(t2)
	addi t2, t2, 8
	blt  t2, t3, loop
	halt
