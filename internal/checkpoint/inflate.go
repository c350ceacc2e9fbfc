package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// The coded section's decoder. pack writes the section with compress/flate
// at flate.HuffmanOnly, whose writer emits two kinds of deflate block
// (RFC 1951): stored blocks (BTYPE 0), including the empty final one its
// Close ends the stream with, and dynamic-Huffman blocks (BTYPE 2) whose
// literal/length code gives lengths to the 256 literals and end-of-block only.
// inflate reads exactly those and refuses everything else a general inflater
// would accept — fixed-Huffman blocks, length/distance symbols — so it keeps
// no match window and writes each literal straight into its place. Every
// stream it accepts, compress/flate decodes to the same bytes (FuzzInflate).

const (
	// litPrimaryBits is the width of the literal code's first-level table;
	// a longer code continues in a second-level table of up to
	// 2^(15-litPrimaryBits) entries.
	litPrimaryBits = 11
	// litTableSize holds the first-level table and every second-level one a
	// complete code of 257 symbols can need: a table of 2^k entries takes at
	// least k+1 of the symbols, so at most 257/5 tables of 16 (822 entries).
	litTableSize = 1 << 12
	maxCodeBits  = 15
	endOfBlock   = 256
	maxLit       = 286 // HLIT's largest meaningful value, as compress/flate holds it
	maxDist      = 30  // and HDIST's
	clCodes      = 19
	clBits       = 7
)

// clOrder is the order in which a dynamic block's header gives the code
// lengths of the code-length code.
var clOrder = [clCodes]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// A table entry: bits 0–3 the bits it consumes, bits 8–9 its kind and, for
// a link, bits 4–7 the second-level table's index width and bits 16–31 its
// offset. A literal entry holds, in bits 10–11, how many literals it
// decodes to, and they in bits 16–31, the first the lowest: the first-level
// table pairs two literals whose codes fit its index together.
const (
	entLength  = 0xF
	entKind    = 3 << 8
	entLiteral = 0 << 8
	entEnd     = 1 << 8
	entLink    = 2 << 8
	entInvalid = 3 << 8
	entOne     = 1 << 10 // a literal entry of one literal
	entTwo     = 2 << 10 // of two
)

// inflater holds a block's decoding tables, kept from block to block and
// from object to object.
type inflater struct {
	lit  [litTableSize]uint32
	cl   [1 << clBits]uint32
	lens [maxLit + maxDist]uint8
	sub  [1 << litPrimaryBits]uint8 // second-level index width per first-level entry
}

// The three length outcomes, which unpack words with the manifest's size.
var (
	errInflatesPast  = errors.New("inflates past")
	errInflatesShort = errors.New("inflates to fewer")
)

// bitReader is the decoder's input: bits holds nbits unread bits of in,
// least significant first, read up to pos. Bits above nbits may hold the
// following input already; a refill ORs the same bytes over them. Past the
// end of in it reads zeros, and overran tells afterwards.
type bitReader struct {
	in    []byte
	pos   int
	bits  uint64
	nbits uint
}

// refill tops bits up to at least 56 unread bits.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.in) {
		r.bits |= binary.LittleEndian.Uint64(r.in[r.pos:]) << r.nbits
		r.pos += 7 - int(r.nbits>>3)
		r.nbits |= 56
		return
	}
	for r.nbits < 56 {
		if r.pos < len(r.in) {
			r.bits |= uint64(r.in[r.pos]) << r.nbits
		}
		r.pos++
		r.nbits += 8
	}
}

// take consumes and returns n ≤ 56 bits, refilling first if it must.
func (r *bitReader) take(n uint) uint64 {
	if r.nbits < n {
		r.refill()
	}
	v := r.bits & (1<<n - 1)
	r.bits >>= n
	r.nbits -= n
	return v
}

// consumed is how many bytes of in the bits read so far occupy.
func (r *bitReader) consumed() int { return r.pos - int(r.nbits>>3) }

// overran reports that the bits read so far run past the end of in.
func (r *bitReader) overran() bool { return r.consumed() > len(r.in) }

// inflate decodes the deflate stream at the start of in into out, which it
// must fill exactly, and returns how many bytes of in the stream occupies.
// It refuses every block pack's writer never emits.
func (d *inflater) inflate(out, in []byte) (int, error) {
	r := bitReader{in: in}
	o := 0
	for final := false; !final; {
		var err error
		final = r.take(1) == 1
		switch r.take(2) {
		case 0:
			o, err = r.stored(out, o)
		case 2:
			if err = d.header(&r); err == nil {
				o, err = d.literals(&r, out, o)
			}
		case 1:
			err = errors.New("has a fixed-Huffman block, which pack never writes")
		default:
			err = errors.New("has a block of the reserved type 3")
		}
		if r.overran() {
			return 0, errors.New("ends inside its deflate stream")
		}
		if err != nil {
			return 0, err
		}
	}
	if o < len(out) {
		return 0, errInflatesShort
	}
	return r.consumed(), nil
}

// stored copies a stored block's bytes to out[o:] and returns the new o.
func (r *bitReader) stored(out []byte, o int) (int, error) {
	at := r.consumed() // the byte after the header's bits: the rest of its byte is padding
	r.pos, r.bits, r.nbits = at, 0, 0
	if at+4 > len(r.in) {
		return o, errors.New("ends inside a stored block's header")
	}
	n, nn := binary.LittleEndian.Uint16(r.in[at:]), binary.LittleEndian.Uint16(r.in[at+2:])
	if n != ^nn {
		return o, fmt.Errorf("has a stored block whose LEN %d is not the complement of its NLEN %d", n, nn)
	}
	at += 4
	if at+int(n) > len(r.in) {
		return o, fmt.Errorf("has a stored block of %d bytes with %d left", n, len(r.in)-at)
	}
	if int(n) > len(out)-o {
		return o, errInflatesPast
	}
	o += copy(out[o:], r.in[at:at+int(n)])
	r.pos = at + int(n)
	return o, nil
}

// header reads a dynamic-Huffman block's header and builds its literal table.
func (d *inflater) header(r *bitReader) error {
	nlit := int(r.take(5)) + 257
	ndist := int(r.take(5)) + 1
	nclen := int(r.take(4)) + 4
	if nlit > maxLit || ndist > maxDist {
		return fmt.Errorf("has a block header naming %d literal/length and %d distance codes", nlit, ndist)
	}
	var cl [clCodes]uint8
	for _, k := range clOrder[:nclen] {
		cl[k] = uint8(r.take(3))
	}
	if err := checkCode(cl[:], "code-length"); err != nil {
		return err
	}
	buildShort(&d.cl, cl[:])
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		r.refill()
		e := d.cl[r.bits&(1<<clBits-1)]
		if e&entKind == entInvalid {
			return errors.New("has a code-length symbol no code names")
		}
		r.bits >>= e & entLength
		r.nbits -= uint(e & entLength)
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var v uint8
		var rep int
		switch sym {
		case 16:
			if i == 0 {
				return errors.New("repeats a code length at position 0")
			}
			v, rep = lens[i-1], 3+int(r.take(2))
		case 17:
			rep = 3 + int(r.take(3))
		default:
			rep = 11 + int(r.take(7))
		}
		if i+rep > len(lens) {
			return fmt.Errorf("repeats a code length past the %d codes its header names", len(lens))
		}
		for ; rep > 0; rep-- {
			lens[i] = v
			i++
		}
	}
	lit := lens[:nlit]
	for _, l := range lit[endOfBlock+1:] {
		if l != 0 {
			return errors.New("codes length symbols, which pack never writes")
		}
	}
	if lit[endOfBlock] == 0 {
		return errors.New("has a Huffman block with no end-of-block code")
	}
	if err := checkCode(lit, "literal/length"); err != nil {
		return err
	}
	if err := checkCode(lens[nlit:], "distance"); err != nil {
		return err
	}
	d.buildLit(lit)
	return nil
}

// checkCode refuses code lengths that over-subscribe the code space or
// leave part of it unused, except a single one-bit code (which zlib writes
// and compress/flate accepts).
func checkCode(lens []uint8, name string) error {
	var count [maxCodeBits + 1]int
	for _, l := range lens {
		count[l]++
	}
	left := 1
	for l := 1; l <= maxCodeBits; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return fmt.Errorf("has an over-subscribed %s code", name)
		}
	}
	if left > 0 && !(count[1] == 1 && count[0] == len(lens)-1) {
		return fmt.Errorf("has an incomplete %s code", name)
	}
	return nil
}

// codes assigns lens' canonical codes (RFC 1951 §3.2.2), bit-reversed so
// that a code's first bit is its lowest, and calls put for each symbol.
func codes(lens []uint8, put func(sym int, rev uint32, l uint8)) {
	var count, next [maxCodeBits + 2]uint32
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= maxCodeBits; l++ {
		next[l+1] = (next[l] + count[l]) << 1
	}
	for sym, l := range lens {
		if l != 0 {
			c := next[l]
			next[l]++
			put(sym, bits.Reverse32(c)>>(32-l), l)
		}
	}
}

// buildShort fills the code-length table, every code of which fits its
// clBits, leaving the entries no code names invalid, as buildLit does.
func buildShort(t *[1 << clBits]uint32, lens []uint8) {
	for i := range t {
		t[i] = entInvalid
	}
	codes(lens, func(sym int, rev uint32, l uint8) {
		for i := rev; i < 1<<clBits; i += 1 << l {
			t[i] = uint32(sym)<<16 | uint32(l)
		}
	})
}

// buildLit fills d.lit for the checked literal code lens: a code of at most
// litPrimaryBits bits fills its first-level entries; a longer one, its
// entries in the second-level table its first litPrimaryBits bits link to,
// which is as wide as the longest code under that prefix needs.
func (d *inflater) buildLit(lens []uint8) {
	const primary = 1 << litPrimaryBits
	// Entries no code names stay invalid: a checked code leaves them only as
	// the single one-bit code does.
	for i := range d.lit[:primary] {
		d.lit[i] = entInvalid
	}
	clear(d.sub[:])
	codes(lens, func(sym int, rev uint32, l uint8) {
		if l > litPrimaryBits {
			p := rev & (primary - 1)
			d.sub[p] = max(d.sub[p], l-litPrimaryBits)
		}
	})
	next := uint32(primary)
	for p, w := range d.sub {
		if w != 0 {
			d.lit[p] = next<<16 | uint32(w)<<4 | entLink
			next += 1 << w
		}
	}
	codes(lens, func(sym int, rev uint32, l uint8) {
		e := uint32(sym)<<16 | entOne | uint32(l)
		if sym == endOfBlock {
			e = entEnd | uint32(l)
		}
		if l <= litPrimaryBits {
			for i := rev; i < primary; i += 1 << l {
				d.lit[i] = e
			}
			return
		}
		link := d.lit[rev&(primary-1)]
		base, w := link>>16, link>>4&0xF
		for i := rev >> litPrimaryBits; i < 1<<w; i += 1 << (l - litPrimaryBits) {
			d.lit[base+i] = e
		}
	})
	// Pair each first-level literal with the one after it when both codes
	// fit the index. The entry for what follows the first code, i>>l with
	// its unknown high bits zero, is below i and so not paired yet.
	for i := primary - 1; i >= 0; i-- {
		e := d.lit[i]
		l := e & entLength
		if e&entKind != entLiteral || l == litPrimaryBits {
			continue
		}
		if f := d.lit[i>>l]; f&entKind == entLiteral && l+f&entLength <= litPrimaryBits {
			d.lit[i] = e&^(entLength|entOne) | f>>16<<24 | entTwo | (l + f&entLength)
		}
	}
}

// literals decodes a Huffman block's literals into out[o:] up to its
// end-of-block code and returns the new o. A refill leaves at least 56 bits
// in the buffer, enough for three entries of up to 15 bits each: the loop
// takes up to three first-level literal entries a refill, one or two
// literals each, and leaves every other entry to its slow path.
func (d *inflater) literals(r *bitReader, out []byte, o int) (int, error) {
	const mask = 1<<litPrimaryBits - 1
	lit := &d.lit
	// The reader's state lives in locals, kept in registers, and goes back
	// to r at a refill near the end of the input and on return.
	in, pos, bb, nb := r.in, r.pos, r.bits, r.nbits
	for {
		if pos+8 <= len(in) {
			bb |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
			pos += 7 - int(nb>>3)
			nb |= 56
		} else {
			r.pos, r.bits, r.nbits = pos, bb, nb
			r.refill()
			pos, bb, nb = r.pos, r.bits, r.nbits
		}
		e := lit[bb&mask]
		if e&entKind == entLiteral && o+1 < len(out) {
			out[o], out[o+1] = byte(e>>16), byte(e>>24)
			o += int(e >> 10 & 3)
			bb >>= e & entLength
			nb -= uint(e & entLength)
			if e = lit[bb&mask]; e&entKind == entLiteral && o+1 < len(out) {
				out[o], out[o+1] = byte(e>>16), byte(e>>24)
				o += int(e >> 10 & 3)
				bb >>= e & entLength
				nb -= uint(e & entLength)
				if e = lit[bb&mask]; e&entKind == entLiteral && o+1 < len(out) {
					out[o], out[o+1] = byte(e>>16), byte(e>>24)
					o += int(e >> 10 & 3)
					bb >>= e & entLength
					nb -= uint(e & entLength)
					continue
				}
			}
		}
		if e&entKind == entLink {
			sub := uint32(bb>>litPrimaryBits) & (1<<(e>>4&0xF) - 1)
			e = lit[(e>>16+sub)&(litTableSize-1)]
		}
		bb >>= e & entLength
		nb -= uint(e & entLength)
		var err error
		switch e & entKind {
		case entLiteral:
			n := int(e >> 10 & 3)
			if n <= len(out)-o {
				out[o] = byte(e >> 16)
				if n == 2 {
					out[o+1] = byte(e >> 24)
				}
				o += n
				continue
			}
			err = errInflatesPast
		case entInvalid:
			err = errors.New("has a literal/length code no symbol has")
		}
		r.pos, r.bits, r.nbits = pos, bb, nb
		return o, err
	}
}
