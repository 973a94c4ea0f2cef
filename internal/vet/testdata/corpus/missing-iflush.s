# corpus: want=missing-iflush at=bar threads=2 dynrace=false
#
# An I-filter arrival with no iflush between the icbi and the stall jump:
# prefetched stub instructions may let the thread run through the barrier.
# The stubs are 256-byte aligned, one 256-byte stub per thread.
	li   t6, 256           # I-filter setup: s6 = stubs + tid*256
	mul  t6, t6, a0
	la   s6, stubs
	add  s6, s6, t6
	fence
bar:
	icbi 0(s6)
	jalr ra, 0(s6)         # no iflush before the stall jump
	halt
	.align 256
stubs:
	ret
	.align 256
	ret
	.align 256
