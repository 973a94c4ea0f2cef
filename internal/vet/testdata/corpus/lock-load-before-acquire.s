# corpus: want=load-before-acquire at=crit threads=4 dynrace=false
#
# A warm read of the thread's lock line before the acquire's dcbi: the load
# cannot be starved, and the bank's lock table faults demand loads from
# threads that never queued.
	li   t4, 4096          # t4 = this thread's lock line,
	mul  t4, t4, a0        # LockRegion + tid*4096
	li   t6, 0x0f800000
	add  t4, t4, t6
	fence
crit:
	ld   t6, 0(t4)         # touches the lock line unqueued
	fence                  # the acquire/release that should have come first
	dcbi 0(t4)
	ld   t6, 0(t4)
	fence
	dcbi 0(t4)
	halt
