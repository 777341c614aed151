package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"datablocks/internal/compress"
	"datablocks/internal/psma"
	"datablocks/internal/types"
)

// Serialization follows Figure 3: a single flat, pointer-free buffer that
// starts with a fixed header and a directory of per-attribute metadata
// (compression method, SMA, and where the attribute's vectors live),
// followed by the vectors themselves. Blocks carry no schema — replicating
// it per block would waste space (§3) — so deserialization takes the column
// kinds from the caller.
//
// Version 3 makes the block readable by attribute: the directory alone
// answers every whole-block SMA test (Directory.MayMatch), and each
// attribute's sections are contiguous and individually checksummed, so a
// reader fetches and verifies only the attributes it needs
// (Directory.Load).
//
//	fixed header, 24 bytes
//	   0  u32  magic "DBLK"
//	   4  u32  version (3)
//	   8  u32  tuple count
//	  12  u32  attribute count
//	  16  u32  size of the whole serialized block in bytes
//	  20  u32  CRC32-C over bytes [0,20) and the attribute directory
//	attribute directory, 64 bytes per attribute
//	   0  u8   kind            1  u8  scheme
//	   2  u8   code width      3  u8  flags (validity, PSMA, all-NULL)
//	   4  u32  NULL count
//	   8  u64  min    16  u64  max    24  u64  single value (SMA, §3.2)
//	  32  u32  offset of the attribute's sections
//	  36  u32  their total length
//	  40  u32  integer dictionary entries (8 bytes each)
//	  44  u32  data (code vector) bytes
//	  48  u32  string dictionary entries (0: one single string)
//	  52  u32  string section bytes (u32 length + bytes per string)
//	  56  u32  CRC32-C over the attribute's sections
//	  60  u32  reserved, zero
//	sections of attribute 0, 1, …, back to back, each attribute's in the
//	order  dictionary | data | strings | validity | PSMA
//	trailer: dataSlack zero bytes
//
// The two checksums split the buffer without overlap: the header CRC
// covers what stays resident while a block is evicted, each attribute CRC
// covers exactly the bytes one partial read fetches. The directory is
// validated as a whole before any section is touched — lengths must be the
// ones scheme, width and tuple count imply, and sections must tile the
// buffer from the end of the directory to the trailer with no gap or
// overlap — so a corrupt or crafted buffer is an error, never a panic or a
// wrong result. Versions 1 and 2 are rejected.

const (
	blockMagic   = 0x4B4C4244 // "DBLK"
	blockVersion = 3
	headerSize   = 24
	crcOffset    = 20
	attrHdrSize  = 64
	// dataSlack bytes follow every code vector so 8-byte SWAR loads at the
	// tail stay in bounds: inside a block they are simply the next
	// section, the trailer provides them behind the last one.
	dataSlack = 8
)

const (
	flagValidity = 1 << iota
	flagPSMA
	flagAllNull
)

// crcTable is the Castagnoli polynomial table (CRC32-C, hardware
// accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// dirAttr is one attribute's directory entry.
type dirAttr struct {
	kind             types.Kind
	scheme           compress.Scheme
	width            int
	flags            byte
	nullCount        int
	min, max, single uint64
	off, length      int
	dictCount        int
	dataLen          int
	strCount, strLen int
	crc              uint32
}

// Directory is the part of a serialized block that stays in RAM while the
// payload is on secondary storage: tuple count plus, per attribute, the
// SMA, compression metadata and section location.
type Directory struct {
	n     int
	size  int
	attrs []dirAttr
}

// DirectorySize returns the serialized size of the fixed header and the
// directory of a block with the given attribute count — the prefix
// ParseDirectory needs.
func DirectorySize(attrs int) int { return headerSize + attrHdrSize*attrs }

// BlockSize returns the size of the whole serialized block the directory
// describes. Every section lies inside it, so a reader that has checked it
// against what it is about to read from knows Load stays in bounds.
func (d *Directory) BlockSize() int { return d.size }

// Size returns the directory's own footprint in bytes.
func (d *Directory) Size() int { return DirectorySize(len(d.attrs)) }

// AttrBytes returns the serialized size of attribute col's sections — what
// loading that attribute reads.
func (d *Directory) AttrBytes(col int) int { return d.attrs[col].length }

// headerCRC is the checksum over the fixed header (minus its own field)
// and the directory.
func headerCRC(buf []byte, attrs int) uint32 {
	return crc32.Update(crc32.Checksum(buf[:crcOffset], crcTable), crcTable, buf[headerSize:DirectorySize(attrs)])
}

// MarshalBinary flattens the block into a self-contained byte buffer.
func (b *Block) MarshalBinary() ([]byte, error) {
	if b.missing != 0 {
		return nil, errors.New("core: cannot marshal a partially loaded block")
	}
	dirEnd := DirectorySize(len(b.attrs))
	buf := make([]byte, dirEnd, dirEnd+b.CompressedSize()+dataSlack)
	for i := range b.attrs {
		a := &b.attrs[i]
		e := dirAttr{kind: a.Kind, scheme: a.scheme(), nullCount: a.NullCount, off: len(buf)}
		if a.Validity != nil {
			e.flags |= flagValidity
		}
		if a.Psma != nil {
			e.flags |= flagPSMA
		}
		allNull := false
		switch a.Kind {
		case types.Int64:
			v := a.Ints
			e.width, allNull = v.Width, v.AllNull
			e.min, e.max, e.single = uint64(v.Min), uint64(v.Max), uint64(v.Single)
			e.dictCount = len(v.Dict)
			for _, x := range v.Dict {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
			}
			if v.Scheme != compress.SingleValue {
				e.dataLen = v.N * v.Width
				buf = append(buf, v.Data[:e.dataLen]...)
			}
		case types.Float64:
			v := a.Floats
			allNull = v.AllNull
			e.min, e.max, e.single = math.Float64bits(v.Min), math.Float64bits(v.Max), math.Float64bits(v.Single)
			if v.Scheme == compress.Uncompressed {
				e.dataLen = 8 * v.N
				for _, f := range v.Values {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
				}
			}
		case types.String:
			v := a.Strs
			e.width, allNull = v.Width, v.AllNull
			if v.Scheme != compress.SingleValue {
				e.dataLen = v.N * v.Width
				buf = append(buf, v.Data[:e.dataLen]...)
			}
			e.strCount = v.DictLen()
			strStart := len(buf)
			for c := range max(e.strCount, 1) {
				s := v.Single
				if e.strCount > 0 {
					s = v.Entry(c)
				}
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
				buf = append(buf, s...)
			}
			e.strLen = len(buf) - strStart
		}
		if allNull {
			e.flags |= flagAllNull
		}
		for _, w := range a.Validity {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		if a.Psma != nil {
			for s := 0; s < a.Psma.NumSlots(); s++ {
				r := a.Psma.SlotRange(s)
				buf = binary.LittleEndian.AppendUint32(buf, r.Begin)
				buf = binary.LittleEndian.AppendUint32(buf, r.End)
			}
		}
		e.length = len(buf) - e.off
		e.crc = crc32.Checksum(buf[e.off:], crcTable)
		e.put(buf[headerSize+i*attrHdrSize:])
	}
	buf = append(buf, make([]byte, dataSlack)...)
	if len(buf) > math.MaxUint32 {
		return nil, fmt.Errorf("core: serialized block of %d bytes exceeds the format's 4 GiB", len(buf))
	}
	binary.LittleEndian.PutUint32(buf[0:], blockMagic)
	binary.LittleEndian.PutUint32(buf[4:], blockVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(b.n))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(b.attrs)))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(buf)))
	binary.LittleEndian.PutUint32(buf[crcOffset:], headerCRC(buf, len(b.attrs)))
	return buf, nil
}

// put writes the directory entry into its 64-byte slot.
func (e *dirAttr) put(h []byte) {
	h[0], h[1], h[2], h[3] = byte(e.kind), byte(e.scheme), byte(e.width), e.flags
	binary.LittleEndian.PutUint32(h[4:], uint32(e.nullCount))
	binary.LittleEndian.PutUint64(h[8:], e.min)
	binary.LittleEndian.PutUint64(h[16:], e.max)
	binary.LittleEndian.PutUint64(h[24:], e.single)
	binary.LittleEndian.PutUint32(h[32:], uint32(e.off))
	binary.LittleEndian.PutUint32(h[36:], uint32(e.length))
	binary.LittleEndian.PutUint32(h[40:], uint32(e.dictCount))
	binary.LittleEndian.PutUint32(h[44:], uint32(e.dataLen))
	binary.LittleEndian.PutUint32(h[48:], uint32(e.strCount))
	binary.LittleEndian.PutUint32(h[52:], uint32(e.strLen))
	binary.LittleEndian.PutUint32(h[56:], e.crc)
}

func validWidth(w int) bool { return w == 1 || w == 2 || w == 4 || w == 8 }

// ParseDirectory verifies and decodes the fixed header and attribute
// directory at the start of a serialized block; buf needs to hold no more
// than DirectorySize(len(kinds)) bytes of it. kinds supplies the schema the
// block does not carry. Everything a later Load relies on is checked here,
// once: the header checksum, and that every attribute's section lengths are
// exactly what its scheme, width and the tuple count imply and that the
// sections tile the block without gap or overlap.
func ParseDirectory(buf []byte, kinds []types.Kind) (*Directory, error) {
	if len(buf) < headerSize {
		return nil, errors.New("core: buffer too short")
	}
	if binary.LittleEndian.Uint32(buf[0:]) != blockMagic {
		return nil, errors.New("core: bad magic")
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != blockVersion {
		return nil, fmt.Errorf("core: unsupported version %d", v)
	}
	n := int(binary.LittleEndian.Uint32(buf[8:]))
	if n < 1 || n > MaxRows {
		return nil, fmt.Errorf("core: block size %d out of range (1..%d)", n, MaxRows)
	}
	attrCount := int(binary.LittleEndian.Uint32(buf[12:]))
	if attrCount != len(kinds) {
		return nil, fmt.Errorf("core: block has %d attributes, schema has %d", attrCount, len(kinds))
	}
	if DirectorySize(attrCount) > len(buf) {
		return nil, fmt.Errorf("core: %d attribute headers do not fit in %d bytes", attrCount, len(buf))
	}
	if want, got := binary.LittleEndian.Uint32(buf[crcOffset:]), headerCRC(buf, attrCount); want != got {
		return nil, fmt.Errorf("core: header checksum mismatch: header says %08x, directory is %08x", want, got)
	}
	d := &Directory{n: n, size: int(binary.LittleEndian.Uint32(buf[16:])), attrs: make([]dirAttr, attrCount)}
	next := DirectorySize(attrCount)
	for i := range d.attrs {
		h := buf[headerSize+i*attrHdrSize:]
		e := &d.attrs[i]
		*e = dirAttr{
			kind: types.Kind(h[0]), scheme: compress.Scheme(h[1]), width: int(h[2]), flags: h[3],
			nullCount: int(binary.LittleEndian.Uint32(h[4:])),
			min:       binary.LittleEndian.Uint64(h[8:]),
			max:       binary.LittleEndian.Uint64(h[16:]),
			single:    binary.LittleEndian.Uint64(h[24:]),
			off:       int(binary.LittleEndian.Uint32(h[32:])),
			length:    int(binary.LittleEndian.Uint32(h[36:])),
			dictCount: int(binary.LittleEndian.Uint32(h[40:])),
			dataLen:   int(binary.LittleEndian.Uint32(h[44:])),
			strCount:  int(binary.LittleEndian.Uint32(h[48:])),
			strLen:    int(binary.LittleEndian.Uint32(h[52:])),
			crc:       binary.LittleEndian.Uint32(h[56:]),
		}
		if e.kind != kinds[i] {
			return nil, fmt.Errorf("core: attribute %d kind %v, schema says %v", i, e.kind, kinds[i])
		}
		if err := e.validate(n); err != nil {
			return nil, fmt.Errorf("core: attribute %d: %w", i, err)
		}
		if e.off != next {
			return nil, fmt.Errorf("core: attribute %d: sections start at %d, previous ones end at %d", i, e.off, next)
		}
		next += e.length
	}
	if next+dataSlack != d.size {
		return nil, fmt.Errorf("core: sections end at %d in a block of %d bytes", next, d.size)
	}
	return d, nil
}

// validate checks one directory entry against the tuple count: scheme and
// width are legal for the kind, and every section has exactly the length
// they imply, so decodeAttr can slice the sections without further bounds
// checks. All quantities are at most 2^35, far from overflowing int.
func (e *dirAttr) validate(n int) error {
	if e.nullCount > n {
		return fmt.Errorf("%d nulls in %d rows", e.nullCount, n)
	}
	coded := false // scheme stores one width-byte code per row
	wantDict, wantStrs := false, false
	switch e.kind {
	case types.Int64:
		switch e.scheme {
		case compress.SingleValue:
		case compress.Uncompressed:
			e.width, coded = 8, true
		case compress.Dictionary:
			coded, wantDict = true, true
		case compress.Truncation:
			coded = true
		default:
			return fmt.Errorf("unknown scheme %d", e.scheme)
		}
	case types.Float64:
		switch e.scheme {
		case compress.SingleValue:
		case compress.Uncompressed:
			e.width, coded = 8, true
		default:
			return fmt.Errorf("scheme %v not valid for doubles", e.scheme)
		}
		if e.flags&flagPSMA != 0 {
			return errors.New("PSMA on a double attribute")
		}
	case types.String:
		switch e.scheme {
		case compress.SingleValue:
		case compress.Dictionary:
			coded, wantStrs = true, true
		default:
			return fmt.Errorf("scheme %v not valid for strings", e.scheme)
		}
	default:
		return fmt.Errorf("unknown kind %d", e.kind)
	}
	wantData := 0
	if coded {
		if !validWidth(e.width) {
			return fmt.Errorf("invalid code width %d", e.width)
		}
		wantData = n * e.width
	}
	if e.dataLen != wantData {
		return fmt.Errorf("data section is %d bytes, %d rows under scheme %v width %d need %d", e.dataLen, n, e.scheme, e.width, wantData)
	}
	if (e.dictCount > 0) != wantDict {
		return fmt.Errorf("%d integer dictionary entries under scheme %v", e.dictCount, e.scheme)
	}
	switch {
	case e.kind != types.String:
		if e.strCount != 0 || e.strLen != 0 {
			return errors.New("string section on a non-string attribute")
		}
	case (e.strCount > 0) != wantStrs:
		return fmt.Errorf("%d dictionary strings under scheme %v", e.strCount, e.scheme)
	case e.strLen < 4*max(e.strCount, 1):
		// Every string occupies at least its length prefix: bounding the
		// count here keeps a crafted one from sizing an allocation.
		return fmt.Errorf("%d strings cannot fit in %d bytes", e.strCount, e.strLen)
	}
	want := 8*e.dictCount + e.dataLen + e.strLen
	if e.flags&flagValidity != 0 {
		want += 8 * ((n + 63) / 64)
	}
	if e.flags&flagPSMA != 0 {
		if !coded {
			return errors.New("PSMA without a code vector")
		}
		want += 8 * 256 * e.width
	}
	if e.length != want {
		return fmt.Errorf("sections are %d bytes, their parts add up to %d", e.length, want)
	}
	return nil
}

// fetchFunc returns the n serialized bytes at offset off as a slice of
// n+dataSlack bytes: the trailing slack is addressable filler for SWAR
// loads, its contents do not matter.
type fetchFunc func(off, n int) ([]byte, error)

// UnmarshalBlock reconstructs a block from a flat buffer produced by
// MarshalBinary: every attribute, decoded in place. The returned block
// aliases buf, which must not be modified afterwards. The buffer is
// untrusted: checksums are verified and every length and code read from it
// is validated, so a truncated or corrupt buffer yields an error instead
// of a panic or wrong results.
func UnmarshalBlock(buf []byte, kinds []types.Kind) (*Block, error) {
	d, err := ParseDirectory(buf, kinds)
	if err != nil {
		return nil, err
	}
	if len(buf) != d.BlockSize() {
		return nil, fmt.Errorf("core: buffer is %d bytes, header says %d", len(buf), d.BlockSize())
	}
	// The trailer makes off+n+dataSlack <= len(buf) for every section.
	b, _, err := d.load(func(off, n int) ([]byte, error) { return buf[off : off+n+dataSlack], nil }, nil, nil)
	return b, err
}

// Load returns a block holding the attributes have already holds (nil:
// none) plus those listed in cols (nil: every attribute; empty: none),
// reading from r — the serialized block — only the sections of listed
// attributes that have lacks; adjacent ones share one read. have is not
// modified: the result shares its vectors. The second result is the number
// of bytes read. A short read, a checksum mismatch or an invalid code is
// an error.
func (d *Directory) Load(r io.ReaderAt, have *Block, cols []int) (*Block, int, error) {
	return d.load(func(off, n int) ([]byte, error) {
		// The read buffer becomes the attributes' code vectors; it is
		// allocated with the slack they need behind them.
		buf := make([]byte, n+dataSlack)
		if _, err := r.ReadAt(buf[:n], int64(off)); err != nil {
			return nil, fmt.Errorf("core: read of %d bytes at %d: %w", n, off, err)
		}
		return buf, nil
	}, have, cols)
}

func (d *Directory) load(fetch fetchFunc, have *Block, cols []int) (*Block, int, error) {
	b := &Block{n: d.n, attrs: make([]Attr, len(d.attrs)), decoded: true}
	if have != nil {
		if have.n != d.n || len(have.attrs) != len(d.attrs) {
			return nil, 0, errors.New("core: loaded block does not belong to this directory")
		}
		copy(b.attrs, have.attrs)
	}
	want := make([]bool, len(d.attrs))
	for _, c := range cols {
		if c < 0 || c >= len(want) {
			return nil, 0, fmt.Errorf("core: attribute %d out of range", c)
		}
		want[c] = true
	}
	need := func(i int) bool { return (cols == nil || want[i]) && !b.attrs[i].loaded() }
	read := 0
	for i := 0; i < len(d.attrs); {
		if !need(i) {
			b.attrs[i].Kind = d.attrs[i].kind
			i++
			continue
		}
		// One read for the run [i, j) of adjacent attributes to load.
		j := i + 1
		for j < len(d.attrs) && need(j) {
			j++
		}
		off := d.attrs[i].off
		n := d.attrs[j-1].off + d.attrs[j-1].length - off
		buf, err := fetch(off, n)
		if err != nil {
			return nil, 0, err
		}
		read += n
		for ; i < j; i++ {
			e := &d.attrs[i]
			if b.attrs[i], err = e.decode(d.n, buf[e.off-off:e.off-off+e.length+dataSlack]); err != nil {
				return nil, 0, fmt.Errorf("core: attribute %d: %w", i, err)
			}
		}
	}
	for i := range b.attrs {
		if !b.attrs[i].loaded() {
			b.missing++
		}
	}
	return b, read, nil
}

// decode builds the attribute from its sections, sec[:e.length], which
// validate already sized; the dataSlack bytes behind them are addressable.
// The code vector is a subslice of sec; a string section costs two
// allocations, its bytes and its offsets, whatever its entry count.
func (e *dirAttr) decode(n int, sec []byte) (Attr, error) {
	body := sec[:e.length]
	if got := crc32.Checksum(body, crcTable); got != e.crc {
		return Attr{}, fmt.Errorf("checksum mismatch: directory says %08x, sections are %08x", e.crc, got)
	}
	a := Attr{Kind: e.kind, NullCount: e.nullCount}
	allNull := e.flags&flagAllNull != 0
	dictSec := body[:8*e.dictCount]
	dataEnd := len(dictSec) + e.dataLen
	var data []byte
	if e.dataLen > 0 {
		data = sec[len(dictSec) : dataEnd+dataSlack : dataEnd+dataSlack]
	}
	strSec := body[dataEnd : dataEnd+e.strLen]
	rest := body[dataEnd+e.strLen:]

	switch e.kind {
	case types.Int64:
		v := &compress.IntVector{
			Scheme: e.scheme, Width: e.width, N: n, AllNull: allNull,
			Min: int64(e.min), Max: int64(e.max), Single: int64(e.single),
			Data: data,
		}
		if e.scheme == compress.Dictionary {
			if c := maxCode(data, n, e.width); c >= uint64(e.dictCount) {
				return Attr{}, fmt.Errorf("code %d exceeds dictionary of %d", c, e.dictCount)
			}
			v.Dict = make([]int64, e.dictCount)
			for j := range v.Dict {
				v.Dict[j] = int64(binary.LittleEndian.Uint64(dictSec[8*j:]))
			}
		}
		a.Ints = v
	case types.Float64:
		v := &compress.FloatVector{
			Scheme: e.scheme, N: n, AllNull: allNull,
			Min: math.Float64frombits(e.min), Max: math.Float64frombits(e.max), Single: math.Float64frombits(e.single),
		}
		if e.scheme == compress.Uncompressed {
			v.Values = make([]float64, n)
			for j := range v.Values {
				v.Values[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*j:]))
			}
		}
		a.Floats = v
	case types.String:
		v := &compress.StringVector{Scheme: e.scheme, Width: e.width, N: n, AllNull: allNull, Data: data}
		// On disk each entry is its u32 length and its bytes; in memory the
		// bytes are back to back, and ends holds where each entry stops.
		ends := make([]uint32, max(e.strCount, 1)+1)
		var sec strings.Builder
		sec.Grow(len(strSec) - 4*(len(ends)-1)) // validate checked the prefixes fit
		off := 0
		for j := 1; j < len(ends); j++ {
			if off+4 > len(strSec) {
				return Attr{}, fmt.Errorf("string %d starts at %d in a section of %d bytes", j-1, off, len(strSec))
			}
			l := int(binary.LittleEndian.Uint32(strSec[off:]))
			off += 4
			if l > len(strSec)-off {
				return Attr{}, fmt.Errorf("string %d of %d bytes at %d overruns a section of %d bytes", j-1, l, off, len(strSec))
			}
			sec.Write(strSec[off : off+l])
			ends[j] = uint32(sec.Len())
			off += l
		}
		if off != len(strSec) {
			return Attr{}, fmt.Errorf("strings end at %d in a section of %d bytes", off, len(strSec))
		}
		if e.scheme == compress.SingleValue {
			v.Single = sec.String()
		} else {
			if c := maxCode(data, n, e.width); c >= uint64(e.strCount) {
				return Attr{}, fmt.Errorf("code %d exceeds dictionary of %d", c, e.strCount)
			}
			v.Section, v.Offsets = sec.String(), ends
		}
		a.Strs = v
	}
	if e.flags&flagValidity != 0 {
		a.Validity = make([]uint64, (n+63)/64)
		for j := range a.Validity {
			a.Validity[j] = binary.LittleEndian.Uint64(rest[8*j:])
		}
		rest = rest[8*len(a.Validity):]
	}
	if e.flags&flagPSMA != 0 {
		t := psma.NewEmpty(e.width)
		for s := 0; s < t.NumSlots(); s++ {
			begin := binary.LittleEndian.Uint32(rest[8*s:])
			end := binary.LittleEndian.Uint32(rest[8*s+4:])
			if end > uint32(n) || begin > end {
				return Attr{}, fmt.Errorf("PSMA slot %d range [%d,%d) exceeds %d rows", s, begin, end, n)
			}
			t.SetSlotRange(s, psma.Range{Begin: begin, End: end})
		}
		a.Psma = t
	}
	return a, nil
}

// maxCode returns the largest of the n width-byte codes in data. Checking
// it against the dictionary size once per vector is what lets point
// accesses index the dictionary unchecked, even on a logically corrupt
// (but checksum-valid) buffer.
func maxCode(data []byte, n, width int) uint64 {
	var m uint64
	switch width {
	case 1:
		var m8 byte
		for _, c := range data[:n] {
			m8 = max(m8, c)
		}
		m = uint64(m8)
	case 2:
		for i := 0; i < n; i++ {
			m = max(m, uint64(binary.LittleEndian.Uint16(data[2*i:])))
		}
	case 4:
		for i := 0; i < n; i++ {
			m = max(m, uint64(binary.LittleEndian.Uint32(data[4*i:])))
		}
	default:
		for i := 0; i < n; i++ {
			m = max(m, binary.LittleEndian.Uint64(data[8*i:]))
		}
	}
	return m
}
