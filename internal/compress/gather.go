package compress

import (
	"encoding/binary"

	"datablocks/internal/simd"
)

// This file implements the "unpacking matches" half of §3.4: decompressing
// exactly the tuples selected by a match-position vector into output
// vectors. Byte-aligned codes make this a tight positional gather — the
// operation whose cost dominates bit-packed formats at moderate
// selectivities (Figure 12b). Truncated codes widen in simd.GatherWiden
// (AVX2 gathers where the CPU has them, the Go loops otherwise); the
// dictionary, uncompressed and string loops stay here.

// Gather decompresses the values at the given positions into out, which
// must have length len(pos).
func (v *IntVector) Gather(pos []uint32, out []int64) {
	switch v.Scheme {
	case SingleValue:
		for i := range out {
			out[i] = v.Single
		}
	case Truncation:
		simd.GatherWiden(v.Data, v.N, v.Width, uint64(v.Min), pos, out)
	case Dictionary:
		switch v.Width {
		case 1:
			for i, p := range pos {
				out[i] = v.Dict[v.Data[p]]
			}
		case 2:
			for i, p := range pos {
				out[i] = v.Dict[binary.LittleEndian.Uint16(v.Data[p*2:])]
			}
		default:
			for i, p := range pos {
				out[i] = v.Dict[binary.LittleEndian.Uint32(v.Data[p*4:])]
			}
		}
	default:
		for i, p := range pos {
			out[i] = UnbiasInt(binary.LittleEndian.Uint64(v.Data[p*8:]))
		}
	}
}

// Gather decompresses the strings at the given positions into out.
func (v *StringVector) Gather(pos []uint32, out []string) {
	if v.Scheme == SingleValue {
		for i := range out {
			out[i] = v.Single
		}
		return
	}
	switch v.Width {
	case 1:
		for i, p := range pos {
			out[i] = v.Entry(int(v.Data[p]))
		}
	case 2:
		for i, p := range pos {
			out[i] = v.Entry(int(binary.LittleEndian.Uint16(v.Data[p*2:])))
		}
	default:
		for i, p := range pos {
			out[i] = v.Entry(int(binary.LittleEndian.Uint32(v.Data[p*4:])))
		}
	}
}

// Gather decompresses the doubles at the given positions into out.
func (v *FloatVector) Gather(pos []uint32, out []float64) {
	if v.Scheme == SingleValue {
		for i := range out {
			out[i] = v.Single
		}
		return
	}
	for i, p := range pos {
		out[i] = v.Values[p]
	}
}
