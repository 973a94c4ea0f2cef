# corpus: want=dyn-partition-overlap at=kern threads=4 dynrace=true
#
# The partition base itself is data-dependent: a masked load picks the slot,
# with no tid term at all, so every thread can land on every slot in
# [0x100, 0x138].
	.data
q:	.quad 0
	.text
kern:
	la   t0, q
	ld   t1, 0(t0)
	andi t1, t1, 56        # slot offset in [0,56]
	li   t2, 0x1000100
	add  t2, t2, t1
	st   a0, 0(t2)
	halt
