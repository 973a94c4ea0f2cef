# corpus: want=cross-partition-store at=kern threads=4 dynrace=true
#
# Two exact tid-strided stores separated by a fence but no barrier. A fence
# drains this thread's stores; it does not order other threads, so the pair
# still races at tid = v+1. Phases split only at barriers.
kern:
	slli t0, a0, 3
	li   t1, 0x1000000
	add  t0, t0, t1
	st   a0, 0(t0)         # own cell: fine
	fence
	st   a0, 8(t0)         # neighbour's cell: races
	halt
