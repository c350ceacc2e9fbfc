package checkpoint

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"swtnas/internal/tensor"
)

// deflateBlock is one block of a deflate stream, as blocksOf reads it.
type deflateBlock struct {
	typ   int // BTYPE: 0 stored, 2 dynamic Huffman
	final bool
	n     int // bytes it decodes to
}

// rfcBits reads a deflate stream one bit at a time, least significant bit
// of each byte first.
type rfcBits struct {
	t   *testing.T
	in  []byte
	pos int // in bits
}

func (r *rfcBits) bits(n int) int {
	v := 0
	for i := 0; i < n; i++ {
		if r.pos>>3 >= len(r.in) {
			r.t.Fatalf("the deflate stream ends inside a block")
		}
		v |= int(r.in[r.pos>>3]>>(r.pos&7)&1) << i
		r.pos++
	}
	return v
}

// symbol decodes one symbol of the canonical Huffman code of lengths, one
// bit at a time, as RFC 1951 §3.2.2 assigns the codes.
func (r *rfcBits) symbol(lengths []int) int {
	var count [16]int
	for _, l := range lengths {
		count[l]++
	}
	code, first := 0, 0
	for l := 1; l < 16; l++ {
		code |= r.bits(1)
		if code-count[l] < first {
			k := code - first // the code's rank among those of length l, in symbol order
			for sym, sl := range lengths {
				if sl == l {
					if k == 0 {
						return sym
					}
					k--
				}
			}
		}
		first = (first + count[l]) << 1
		code <<= 1
	}
	r.t.Fatalf("a bit sequence no code of %v names", lengths)
	return 0
}

// blocksOf walks a deflate stream made of stored and dynamic-Huffman blocks
// whose symbols are literals and end-of-block only, as RFC 1951 lays them
// out, and returns its blocks and what they decode to. Anything else — a
// fixed-Huffman block, a length symbol, bytes after the final block — fails
// the test. It is an independent reading of the format, one bit at a time.
func blocksOf(t *testing.T, coded []byte) ([]deflateBlock, []byte) {
	r := &rfcBits{t: t, in: coded}
	var blocks []deflateBlock
	var out []byte
	for final := false; !final; {
		final = r.bits(1) == 1
		b := deflateBlock{typ: r.bits(2), final: final}
		switch b.typ {
		case 0:
			r.pos = (r.pos + 7) &^ 7
			n, nn := r.bits(16), r.bits(16)
			if n != ^nn&0xFFFF || r.pos/8+n > len(coded) {
				t.Fatalf("a stored block's LEN %d and NLEN %d", n, nn)
			}
			out = append(out, coded[r.pos/8:r.pos/8+n]...)
			r.pos += 8 * n
			b.n = n
		case 2:
			nlit, ndist, nclen := r.bits(5)+257, r.bits(5)+1, r.bits(4)+4
			order := []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
			cl := make([]int, 19)
			for _, k := range order[:nclen] {
				cl[k] = r.bits(3)
			}
			lengths := make([]int, 0, nlit+ndist)
			for len(lengths) < nlit+ndist {
				switch sym := r.symbol(cl); sym {
				case 16:
					prev := lengths[len(lengths)-1]
					for n := r.bits(2) + 3; n > 0; n-- {
						lengths = append(lengths, prev)
					}
				case 17:
					lengths = append(lengths, make([]int, r.bits(3)+3)...)
				case 18:
					lengths = append(lengths, make([]int, r.bits(7)+11)...)
				default:
					lengths = append(lengths, sym)
				}
			}
			for {
				sym := r.symbol(lengths[:nlit])
				if sym == 256 {
					break
				}
				if sym > 256 {
					t.Fatalf("a Huffman block codes length symbol %d", sym)
				}
				out = append(out, byte(sym))
				b.n++
			}
		default:
			t.Fatalf("a block of type %d", b.typ)
		}
		blocks = append(blocks, b)
	}
	if n := len(coded) - (r.pos+7)/8; n != 0 {
		t.Fatalf("%d bytes after the final block", n)
	}
	return blocks, out
}

// codedSection returns an object's coded section.
func codedSection(obj []byte) []byte {
	return obj[objectHead : objectHead+int(binary.LittleEndian.Uint64(obj[len(objectMagic):]))]
}

// planeModel is one tensor of n elements at dtype dt whose values come from
// value: a synthetic candidate whose top byte planes are what value makes
// of them.
func planeModel(dt tensor.DType, n int, value func(i int) float64) *Model {
	data := make([]float64, n)
	for i := range data {
		data[i] = value(i)
		if dt == tensor.F32 {
			data[i] = float64(float32(data[i]))
		}
	}
	return &Model{DType: dt, Arch: []int{1}, Groups: []Group{{
		Layer: "l", Signature: []int{n}, Tensors: []Tensor{{Name: "w", Shape: []int{n}, Data: data}},
	}}}
}

// TestInflateReadsWhatPackWrites pins the deflate the object format's coded
// section holds to what pack's writer emits: stored blocks and dynamic
// Huffman blocks of literals and end-of-block only. Real candidates of every
// application at both dtypes, and synthetic ones whose top planes are
// constant, random (stored as they are) or over 64 KiB (several blocks),
// round-trip through pack and unpack; blocksOf reads every coded section,
// and between them the objects show a literal-only Huffman block, a stored
// data block, several blocks in one object and the empty final stored block
// the writer's Close ends a stream with.
func TestInflateReadsWhatPackWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	randomBits := func(int) float64 {
		for {
			if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	models := realModels(t)
	for _, dt := range []tensor.DType{tensor.F64, tensor.F32} {
		models = append(models,
			planeModel(dt, 3000, func(i int) float64 { return 1 + float64(i)/65536 }),
			planeModel(dt, 3000, randomBits),
			planeModel(dt, 70000, func(int) float64 { return rng.NormFloat64() * 0.05 }),
		)
	}
	var huffman, stored, several, emptyFinal bool
	for i, m := range models {
		stream, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		obj, err := pack(stream)
		if err != nil {
			t.Fatal(err)
		}
		_, mf := manifestOf(t, m)
		if got, err := unpack(mf, obj, true, nil); err != nil || !bytes.Equal(got, stream) {
			t.Fatalf("model %d (%v): unpack(pack(stream)) is not the stream: %v", i, m.DType, err)
		}
		blocks, plain := blocksOf(t, codedSection(obj))
		if ref, err := io.ReadAll(flate.NewReader(bytes.NewReader(codedSection(obj)))); err != nil || !bytes.Equal(plain, ref) {
			t.Fatalf("model %d: blocksOf and compress/flate read the coded section differently (err %v)", i, err)
		}
		several = several || len(blocks) > 2
		for _, b := range blocks {
			huffman = huffman || b.typ == 2
			stored = stored || b.typ == 0 && b.n > 0
			emptyFinal = emptyFinal || b.typ == 0 && b.n == 0 && b.final
		}
		if last := blocks[len(blocks)-1]; last.typ != 0 || last.n != 0 {
			t.Errorf("model %d: the stream ends with %+v, not the empty stored block Close writes", i, last)
		}
	}
	if !huffman || !stored || !several || !emptyFinal {
		t.Fatalf("blocks seen: literal-only Huffman %v, stored data %v, several in one object %v, empty final stored %v; want all",
			huffman, stored, several, emptyFinal)
	}
}

// bitWriter writes a deflate stream by hand, for streams pack's writer never
// makes.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

// bits writes v's n low bits, least significant first.
func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes an l-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c uint32, l uint8) {
	for i := int(l) - 1; i >= 0; i-- {
		w.bits(uint64(c>>i&1), 1)
	}
}

// flag writes one bit, set if b is.
func (w *bitWriter) flag(b bool) {
	if b {
		w.bits(1, 1)
	} else {
		w.bits(0, 1)
	}
}

// align pads to the next byte boundary.
func (w *bitWriter) align() {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
}

func (w *bitWriter) bytes() []byte {
	w.align()
	return w.out
}

// canonical assigns lens' canonical Huffman codes (RFC 1951 §3.2.2).
func canonical(lens []uint8) []uint32 {
	var count, next [17]uint32
	for _, l := range lens {
		if l > 0 {
			count[l]++
		}
	}
	for l := 1; l < 16; l++ {
		next[l+1] = (next[l] + count[l]) << 1
	}
	codes := make([]uint32, len(lens))
	for sym, l := range lens {
		if l > 0 {
			codes[sym] = next[l]
			next[l]++
		}
	}
	return codes
}

// clSym is one symbol of a dynamic block's code-length sequence with its
// extra bits.
type clSym struct {
	sym   int
	extra uint64
}

// dynamicLens is the code-length code handBlock writes every header with:
// the sixteen lengths at 5 bits and the three repeat codes at 2, 3 and 3.
var dynamicLens = func() []uint8 {
	lens := make([]uint8, 19)
	for i := range 16 {
		lens[i] = 5
	}
	lens[16], lens[17], lens[18] = 2, 3, 3
	return lens
}()

// handBlock writes one dynamic-Huffman block: the header for lit and dist
// (each length spelled out, unless seq is given: then seq is the header's
// code-length sequence as it stands), then syms in lit's code — a symbol
// above 256 followed by its distance symbol, -1 for distance code 0 — and
// end-of-block if lit has a code for it.
func handBlock(w *bitWriter, final bool, lit, dist []uint8, seq []clSym, syms []int) {
	w.flag(final)
	w.bits(2, 2)
	w.bits(uint64(len(lit)-257), 5)
	w.bits(uint64(len(dist)-1), 5)
	w.bits(19-4, 4)
	for _, k := range []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15} {
		w.bits(uint64(dynamicLens[k]), 3)
	}
	if seq == nil {
		for _, l := range append(append([]uint8(nil), lit...), dist...) {
			seq = append(seq, clSym{sym: int(l)})
		}
	}
	clCodes := canonical(dynamicLens)
	for _, s := range seq {
		w.code(clCodes[s.sym], dynamicLens[s.sym])
		w.bits(s.extra, map[int]uint{16: 2, 17: 3, 18: 7}[s.sym])
	}
	litCodes, distCodes := canonical(lit), canonical(dist)
	for _, s := range syms {
		if s == -1 {
			w.code(distCodes[0], dist[0])
			continue
		}
		w.code(litCodes[s], lit[s])
	}
	if len(lit) > 256 && lit[256] > 0 {
		w.code(litCodes[256], lit[256])
	}
}

// litLens returns 257 literal/length code lengths, zero but for the given
// symbols.
func litLens(n int, set map[int]uint8) []uint8 {
	lens := make([]uint8, n)
	for sym, l := range set {
		lens[sym] = l
	}
	return lens
}

// storedBlock writes one stored block holding p, with NLEN given.
func storedBlock(w *bitWriter, final bool, p []byte, nlen uint16) {
	w.flag(final)
	w.bits(0, 2)
	w.align()
	w.bits(uint64(len(p)), 16)
	w.bits(uint64(nlen), 16)
	for _, b := range p {
		w.bits(uint64(b), 8)
	}
}

// stream builds a deflate stream with the block writers above.
func stream(blocks ...func(w *bitWriter)) []byte {
	w := &bitWriter{}
	for _, b := range blocks {
		b(w)
	}
	return w.bytes()
}

// flateReads decodes coded with compress/flate, the reference, and reports
// what it decoded, how many bytes it left unread and its error.
func flateReads(coded []byte) ([]byte, int, error) {
	src := bytes.NewReader(coded)
	got, err := io.ReadAll(flate.NewReader(src))
	return got, src.Len(), err
}

// TestInflateRefusesWhatPackNeverWrites: every deflate stream the coded
// section's decoder refuses, one row a reason, with the error naming it.
// Each row also goes through compress/flate, to show whether it is valid
// deflate that pack never writes (valid) or corrupt; the single one-bit code
// both accept. The target length is what the stream decodes to, so no row
// trips the length checks instead.
func TestInflateRefusesWhatPackNeverWrites(t *testing.T) {
	a := byte('a')
	ab := litLens(257, map[int]uint8{'a': 1, 256: 1})
	oneBit := []uint8{1}
	for _, c := range []struct {
		name  string
		coded []byte
		n     int    // the target length
		want  string // "" for a stream both accept
		valid bool   // compress/flate decodes it
	}{
		{"fixed_huffman", stream(func(w *bitWriter) {
			w.bits(1, 1)
			w.bits(1, 2)
			w.code(0x30+uint32(a), 8) // literal 'a' in the fixed code
			w.code(0, 7)              // end-of-block
		}), 1, "fixed-Huffman", true},
		{"reserved_type", stream(func(w *bitWriter) { w.bits(1, 1); w.bits(3, 2) }), 0, "reserved", false},
		{"length_symbol", stream(func(w *bitWriter) {
			// 'a', then a match of 3 at distance 1: "aaaa".
			handBlock(w, true, litLens(258, map[int]uint8{'a': 1, 256: 2, 257: 2}), oneBit, nil, []int{'a', 257, -1})
		}), 4, "codes length symbols", true},
		{"over_subscribed", stream(func(w *bitWriter) {
			handBlock(w, true, litLens(257, map[int]uint8{'a': 1, 'b': 1, 256: 1}), oneBit, nil, []int{'a'})
		}), 1, "over-subscribed literal/length code", false},
		{"incomplete", stream(func(w *bitWriter) {
			handBlock(w, true, litLens(257, map[int]uint8{'a': 2, 256: 2}), oneBit, nil, []int{'a', 'a'})
		}), 2, "incomplete literal/length code", false},
		{"incomplete_distance", stream(func(w *bitWriter) {
			handBlock(w, true, ab, []uint8{2}, nil, []int{'a'})
		}), 1, "incomplete distance code", false},
		{"single_one_bit_code", stream(func(w *bitWriter) {
			handBlock(w, false, litLens(257, map[int]uint8{256: 1}), oneBit, nil, nil)
			handBlock(w, true, ab, oneBit, nil, []int{'a'})
		}), 1, "", true},
		{"repeat_at_0", stream(func(w *bitWriter) {
			handBlock(w, true, ab, oneBit, []clSym{{16, 0}}, nil)
		}), 0, "repeats a code length at position 0", false},
		{"repeat_past_hlit_hdist", stream(func(w *bitWriter) {
			// 97 zeros, 'a' at 1, 158 zeros, EOB at 1, then a run of 3
			// zeros where only the distance code's one length is left.
			handBlock(w, true, ab, oneBit, []clSym{{18, 97 - 11}, {1, 0}, {18, 138 - 11}, {18, 20 - 11}, {1, 0}, {17, 0}}, nil)
		}), 0, "past the 258 codes", false},
		{"no_end_of_block", stream(func(w *bitWriter) {
			handBlock(w, true, litLens(257, map[int]uint8{'a': 1, 'b': 1}), oneBit, nil, []int{'a', 'b'})
		}), 2, "no end-of-block code", false},
		{"too_many_literal_codes", stream(func(w *bitWriter) {
			handBlock(w, true, litLens(287, map[int]uint8{'a': 1, 256: 1}), oneBit, nil, []int{'a'})
		}), 1, "287 literal/length", false},
		{"stored_nlen", stream(func(w *bitWriter) { storedBlock(w, true, []byte("abc"), ^uint16(3)^1) }), 3, "not the complement", false},
		{"stored_past_input", stream(func(w *bitWriter) { storedBlock(w, true, []byte("abc"), ^uint16(3)) })[:7], 3, "with 2 left", false},
		{"truncated", stream(func(w *bitWriter) { handBlock(w, true, ab, oneBit, nil, []int{'a', 'a', 'a'}) })[:3], 3, "ends inside its deflate stream", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			out := make([]byte, c.n)
			_, err := new(inflater).inflate(out, c.coded)
			if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
				t.Errorf("inflate: err = %v, want %q", err, c.want)
			}
			ref, left, refErr := flateReads(c.coded)
			if (refErr == nil) != c.valid {
				t.Errorf("compress/flate: err = %v, want valid %v", refErr, c.valid)
			}
			if c.valid && (len(ref) != c.n || left != 0) {
				t.Errorf("compress/flate decodes %d bytes and leaves %d, want %d and 0", len(ref), left, c.n)
			}
			if err == nil && !bytes.Equal(out, ref) {
				t.Errorf("inflate decodes %q, compress/flate %q", out, ref)
			}
		})
	}
}

// FuzzInflate holds the coded section's decoder to compress/flate: on
// arbitrary coded bytes and a target length (up to the 8:1 unpack allows),
// whenever inflate accepts, the reference decodes the same bytes from the
// same prefix of the input — for a whole coded section, leaving no byte
// unread. Tables a real object left behind change nothing. The seeds are
// the coded sections of small f64 and f32 objects, a BestCompression stream
// and a fixed-Huffman one, each with its truncated and bit-flipped copies
// and a target one byte long.
// Run `go test -run '^$' -fuzz FuzzInflate ./internal/checkpoint` for a real
// fuzzing session; under plain `go test` the seed corpus runs.
func FuzzInflate(f *testing.F) {
	seed := func(coded []byte) {
		plain, _, err := flateReads(coded)
		if err != nil {
			f.Fatal(err)
		}
		n := uint32(len(plain))
		f.Add(coded, n)
		f.Add(coded[:len(coded)/2], n)
		f.Add(coded, n+1)
		for _, at := range []int{0, 1, 2, 5, len(coded) / 2, len(coded) - 1} {
			if at >= len(coded) {
				continue
			}
			flipped := append([]byte(nil), coded...)
			flipped[at] ^= 0xFF
			f.Add(flipped, n)
		}
	}
	for _, m := range []*Model{FromNetwork([]int{1, 2, 3}, 0.5, sampleNet(96)), casModelF32(97, 3)} {
		stream, err := m.Encode()
		if err != nil {
			f.Fatal(err)
		}
		obj, err := pack(stream)
		if err != nil {
			f.Fatal(err)
		}
		seed(codedSection(obj))
	}
	var best bytes.Buffer
	zw, err := flate.NewWriter(&best, flate.BestCompression)
	if err != nil {
		f.Fatal(err)
	}
	zw.Write(bytes.Repeat([]byte("selective weight transfer "), 40))
	if err := zw.Close(); err != nil {
		f.Fatal(err)
	}
	seed(best.Bytes())
	seed(stream(func(w *bitWriter) {
		w.bits(1, 1)
		w.bits(1, 2)
		w.code(0x30+'a', 8)
		w.code(0, 7)
	}))
	// The tables of a real nt3/f64 candidate, whose literal code has
	// second-level tables.
	nt3, err := realModels(f)[4].Encode()
	if err != nil {
		f.Fatal(err)
	}
	obj, err := pack(nt3)
	if err != nil {
		f.Fatal(err)
	}
	plain, _, err := flateReads(codedSection(obj))
	if err != nil {
		f.Fatal(err)
	}
	var primed inflater
	if _, err := primed.inflate(make([]byte, len(plain)), codedSection(obj)); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, coded []byte, size uint32) {
		if uint64(size) > 8*uint64(len(coded)) {
			return // unpack refuses it before it decodes
		}
		out := make([]byte, size)
		n, err := new(inflater).inflate(out, coded)
		used := primed
		reused := make([]byte, size)
		n2, err2 := used.inflate(reused, coded)
		if n2 != n || fmt.Sprint(err2) != fmt.Sprint(err) || err == nil && !bytes.Equal(reused, out) {
			t.Fatalf("in used tables inflate read %d bytes, err %v; in fresh ones %d, err %v", n2, err2, n, err)
		}
		if err != nil {
			return
		}
		ref, left, refErr := flateReads(coded)
		if refErr != nil || !bytes.Equal(ref, out) || left != len(coded)-n {
			t.Fatalf("inflate accepted %d bytes of %d, decoding %d; compress/flate decodes %d, leaves %d unread, err %v",
				n, len(coded), len(out), len(ref), left, refErr)
		}
	})
}
