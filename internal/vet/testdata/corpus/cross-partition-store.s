# corpus: want=cross-partition-store at=kern threads=4 dynrace=true
#
# Every thread writes the same data word.
kern:
	li   t0, 0x1000000
	li   t1, 123
	st   t1, 0(t0)
	halt
