# corpus: want=dyn-partition-overlap at=kern threads=4 dynrace=true
#
# Stride-64 per-thread partitions, but the in-partition offset is a
# data-dependent value masked to [0,120]: the footprint spans 128 bytes, so
# adjacent threads' partitions can overlap. The per-thread index cells make
# the overlap concrete at run time.
	.data
idx:	.quad 64, 0, 0, 0      # thread 0's offset reaches into thread 1's cell
	.text
kern:
	la   t0, idx
	slli t1, a0, 3
	add  t0, t0, t1
	ld   t2, 0(t0)         # per-thread dynamic offset
	andi t2, t2, 120
	li   t3, 64
	mul  t3, t3, a0
	li   t4, 0x1001000
	add  t3, t3, t4
	add  t3, t3, t2        # base + 64*tid + [0,120]
	st   t2, 0(t3)
	halt
