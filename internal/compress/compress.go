// Package compress implements the byte-addressable attribute compression of
// Data Blocks (§3.3): single-value, order-preserving dictionary, and
// truncation (a Frame-of-Reference with the block minimum as reference).
//
// Compressed codes are unsigned little-endian integers of 1, 2, 4 or 8
// bytes stored in a flat byte slice, so point accesses stay O(1)
// (byte-addressability is the format's central requirement) and the simd
// kernels evaluate predicates directly on the compressed representation.
// All schemes are order-preserving, so a SARGable predicate translates into
// an unsigned range or inequality over codes.
//
// Sub-byte encodings (BitWeaving-style bit-packing) are intentionally
// rejected, following §5.4; package bitpack implements them only as the
// comparison baseline.
package compress

import (
	"cmp"
	"fmt"
	"slices"
)

// Scheme identifies a compression method for one attribute in one block.
type Scheme uint8

const (
	// Uncompressed stores full-width codes. Integer columns use an
	// order-preserving sign-bias mapping so unsigned code order equals
	// signed value order.
	Uncompressed Scheme = iota
	// SingleValue stores one value for the whole block — the paper's
	// special case of run-length encoding, covering the all-NULL column.
	SingleValue
	// Dictionary stores a sorted dictionary of distinct values and
	// byte-truncated key codes. Immutability makes the order-preserving
	// dictionary affordable (§3.3).
	Dictionary
	// Truncation stores v − min(block) in 1, 2, or 4 bytes.
	Truncation
)

func (s Scheme) String() string {
	switch s {
	case Uncompressed:
		return "uncompressed"
	case SingleValue:
		return "single"
	case Dictionary:
		return "dict"
	case Truncation:
		return "trunc"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// Verdict summarizes a predicate translated into a block's code domain.
type Verdict uint8

const (
	// None means no tuple in the block can match; the block is skipped.
	None Verdict = iota
	// All means every (non-null) tuple matches; no comparison is needed.
	All
	// Range means tuples with code in [C1, C2] match.
	Range
	// NotEqual means tuples with code != C1 match.
	NotEqual
)

// Translation is a predicate rewritten into the code domain of one
// compressed vector.
type Translation struct {
	Verdict Verdict
	C1, C2  uint64
}

// ByteWidth returns the smallest supported code width (1, 2, 4 or 8 bytes)
// that can represent maxCode.
func ByteWidth(maxCode uint64) int {
	switch {
	case maxCode <= 0xFF:
		return 1
	case maxCode <= 0xFFFF:
		return 2
	case maxCode <= 0xFFFFFFFF:
		return 4
	default:
		return 8
	}
}

const signBias = uint64(1) << 63

// BiasInt maps an int64 to a uint64 such that unsigned order of the images
// equals signed order of the inputs. Used for uncompressed integer codes.
func BiasInt(v int64) uint64 { return uint64(v) ^ signBias }

// UnbiasInt inverts BiasInt.
func UnbiasInt(c uint64) int64 { return int64(c ^ signBias) }

// sortedDistinct returns the ascending distinct values of vals in a slice
// of exactly their count: a dictionary the block keeps must not pin the
// sorted copy of the whole column it was found in.
func sortedDistinct[T cmp.Ordered](vals []T) []T {
	if len(vals) == 0 {
		return nil
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	s = slices.Compact(s)
	d := make([]T, len(s))
	copy(d, s)
	return d
}
