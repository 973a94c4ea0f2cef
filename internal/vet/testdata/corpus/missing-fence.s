# corpus: want=missing-fence at=bar threads=4 dynrace=false
#
# A store into this thread's partition cell, then an arrival without
# draining it: the store may still be pending when the filter opens.
	li   t6, 256           # D-filter setup: s6 = arrivals + tid*256,
	mul  t6, t6, a0        # s7 = exits + tid*256
	li   s6, 0x0f000000
	add  s6, s6, t6
	li   s7, 0x0f001000
	add  s7, s7, t6
	li   t0, 8
	mul  t0, t0, a0
	li   t7, 0x1000000
	add  t0, t0, t7
	st   t7, 0(t0)
bar:
	dcbi 0(s6)             # missing fence
	ld   t6, 0(s6)
	fence
	dcbi 0(s7)
	halt
