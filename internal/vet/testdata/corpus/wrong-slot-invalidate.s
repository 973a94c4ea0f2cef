# corpus: want=wrong-slot-invalidate at=bar threads=4 dynrace=false
#
# The arrival invalidates the next line, not the line this thread stalls on.
	li   t6, 256           # D-filter setup: s6 = arrivals + tid*256,
	mul  t6, t6, a0        # s7 = exits + tid*256
	li   s6, 0x0f000000
	add  s6, s6, t6
	li   s7, 0x0f001000
	add  s7, s7, t6
	fence
bar:
	dcbi 64(s6)            # another thread's slot
	ld   t6, 0(s6)
	fence
	dcbi 0(s7)
	halt
