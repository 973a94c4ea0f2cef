# corpus: want=dead-code at=dead threads=1 dynrace=false
#
# Nothing jumps to dead.
kern:
	li   t0, 1
	halt
dead:
	addi t0, t0, 1
	halt
