# corpus: want=use-before-def at=kern threads=1 dynrace=false
#
# t0 is read but never defined.
kern:
	add  t1, t0, t0
	halt
