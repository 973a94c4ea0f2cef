# corpus: want=cross-partition-store at=loop threads=4 dynrace=true
#
# The index k runs to a bound loaded from memory. The loop-head interval
# widens away, but the first iteration (the preheader edge) is exact: every
# thread's store provably starts at the same word.
kern:
	li   t0, 0x1000800
	ld   t1, 0(t0)         # n: data-dependent iteration bound
	li   t2, 0             # k = 0
	li   t3, 0x1000000
loop:
	st   t2, 0(t3)         # out[k]: no tid skew, all threads share it
	addi t3, t3, 8
	addi t2, t2, 1
	blt  t2, t1, loop
	halt
