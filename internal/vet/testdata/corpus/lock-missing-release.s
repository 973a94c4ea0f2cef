# corpus: want=missing-release at=crit threads=4 dynrace=false
#
# A correct acquire whose critical section never releases: waiters parked
# at the bank stay parked forever.
	li   t4, 4096          # t4 = this thread's lock line,
	mul  t4, t4, a0        # LockRegion + tid*4096
	li   t6, 0x0f800000
	add  t4, t4, t6
	fence
	dcbi 0(t4)
	ld   t6, 0(t4)
	fence
crit:
	halt                   # still holding
