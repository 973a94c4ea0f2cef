# corpus: want=store-load-race at=kern threads=4 dynrace=true
#
# A thread reads its right neighbour's cell while that neighbour writes it,
# with no barrier between: an exact store/load race.
kern:
	slli t0, a0, 3
	li   t1, 0x1000000
	add  t0, t0, t1
	st   a0, 0(t0)         # own cell
	ld   t2, 8(t0)         # neighbour's cell, unsynchronized
	halt
