# corpus: want=store-to-arrival-line at=poke threads=4 dynrace=false
#
# After a correct barrier, a store writes the filter-watched arrival line.
	li   t6, 256           # D-filter setup: s6 = arrivals + tid*256,
	mul  t6, t6, a0        # s7 = exits + tid*256
	li   s6, 0x0f000000
	add  s6, s6, t6
	li   s7, 0x0f001000
	add  s7, s7, t6
	fence                  # the correct D-filter arrival
	dcbi 0(s6)
	ld   t6, 0(s6)
	fence
	dcbi 0(s7)
poke:
	st   zero, 0(s6)       # corrupts the starvation protocol
	fence
	halt
