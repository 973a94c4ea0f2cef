package isa

// Decoded is the execution-ready, pre-bound form of one instruction: the
// decoded fields plus every static property the pipeline frontend needs, so
// a translation cache can pay for decoding and table lookups once per text
// word instead of once per fetch. All fields are derived purely from the
// instruction word, so a Decoded record is valid exactly as long as the
// word it was translated from is unchanged in memory. Of the opcode's Info
// it keeps only what the pipeline reads, the class and the access size: a
// record is held per translated text word and copied per fetch.
type Decoded struct {
	In       Inst
	Class    Class
	MemBytes int

	// Src0 and Src1 are the regfile indices read by the two source slots
	// (0..31 int, 32..63 fp), or -1 for an unused slot. Integer x0 keeps
	// index 0: readers treat it as the hardwired zero.
	Src0, Src1 int8
	// Dest is the regfile index written, or -1. Writes to x0 are
	// discarded by the hardware and report as -1.
	Dest int8
	// Ser marks serializing classes (FENCE / IFLUSH / HWBAR / HALT).
	Ser bool
	// Mem marks instructions that occupy an LSQ slot (loads, stores and
	// cache-ops).
	Mem bool
}

// srcIndex returns the regfile index read by source slot i, or -1.
func srcIndex(info Info, in Inst, i int) int8 {
	if i == 0 {
		switch {
		case info.ReadsR1:
			return int8(in.Rs1)
		case info.ReadsF1:
			return 32 + int8(in.Rs1)
		}
		return -1
	}
	switch {
	case info.ReadsR2:
		return int8(in.Rs2)
	case info.ReadsF2:
		return 32 + int8(in.Rs2)
	}
	return -1
}

// PredecodeInst binds an already-decoded instruction's static properties.
func PredecodeInst(in Inst) Decoded {
	info := Lookup(in.Op)
	d := Decoded{
		In:       in,
		Class:    info.Class,
		MemBytes: info.MemBytes,
		Src0:     srcIndex(info, in, 0),
		Src1:     srcIndex(info, in, 1),
		Dest:     -1,
	}
	switch {
	case info.WritesRd && in.Rd != 0:
		d.Dest = int8(in.Rd)
	case info.WritesFd:
		d.Dest = 32 + int8(in.Rd)
	}
	switch info.Class {
	case ClassFence, ClassIFlush, ClassHWBar, ClassHalt:
		d.Ser = true
	case ClassLoad, ClassStore, ClassCacheOp:
		d.Mem = true
	}
	return d
}

// Predecode decodes a 64-bit instruction word straight to its pre-bound
// form. Predecode(w).In is always identical to Decode(w).
func Predecode(w uint64) Decoded {
	return PredecodeInst(Decode(w))
}
