package tensor

import (
	"math"
	"math/rand"
)

// Dropout masks are drawn from math/rand's own generator, in bulk.
// rand.NewSource's generator is the additive lagged-Fibonacci recurrence
//
//	x[n] = x[n−607] + x[n−273]  (mod 2⁶⁴)
//
// which is what its Uint64 computes, feed and tap stepping down together
// 334 apart in a ring of 607 words. A Stream continues that recurrence in a
// linear buffer instead, so the next 273 draws can always be computed at
// once, and a dropout body (elem_amd64.s) computes the draws of a whole
// call and its masks in one pass: the same draws, in the same order, as
// rand.New(rand.NewSource(seed)).Float64 called once per element.

const (
	streamLong  = 607  // the long lag of math/rand's generator (rngLen)
	streamShort = 273  // its short lag (rngTap)
	streamAhead = 2048 // the draws a Stream buffers between two shifts
)

// Stream is a rand.Source64 whose draws equal rand.NewSource(seed)'s for
// every seed, and which Dropout draws from in bulk. A Stream is not safe
// for concurrent use.
type Stream struct {
	// buf[pos−607 : pos] are the last 607 draws; buf[pos:] is room for
	// the next ones. A body may write draws past pos that it did not
	// consume: they are the recurrence's values, so the next draws write
	// them again.
	buf [streamLong + streamAhead]uint64
	pos int
	rng *rand.Rand
}

// NewStream returns the Stream seeded with seed.
func NewStream(seed int64) *Stream {
	s := new(Stream)
	s.rng = rand.New(s)
	s.Seed(seed)
	return s
}

// Rand returns the rand.Rand that draws from s: the one generator of
// everything seeded with it. A network whose dropout layers hold it may
// hand them s to draw their masks through Dropout.
func (s *Stream) Rand() *rand.Rand { return s.rng }

// Seed draws rand.NewSource(seed)'s first 607 values x[0…606] and runs the
// recurrence backwards from them, x[n−607] = x[n] − x[n−273], to the 607
// values before them: the history whose next 607 draws they are. No cooked
// table is copied; the standard source seeds itself. The history replaces
// the draws in place, from the top: x[n−273] is a draw not yet replaced
// for n ≥ 273, and for n < 273 the history value x[n+334−607] replaced
// already.
func (s *Stream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	b := s.buf[:streamLong]
	for i := range b {
		b[i] = src.Uint64()
	}
	for n := streamLong - 1; n >= 0; n-- {
		if n >= streamShort {
			b[n] -= b[n-streamShort]
		} else {
			b[n] -= b[n+streamLong-streamShort]
		}
	}
	s.pos = streamLong
}

// Uint64 returns the next draw.
func (s *Stream) Uint64() uint64 {
	if s.pos == len(s.buf) {
		s.shift()
	}
	p := s.pos
	v := s.buf[p-streamLong] + s.buf[p-streamShort]
	s.buf[p] = v
	s.pos = p + 1
	return v
}

// Int63 returns the next draw's low 63 bits, as rand.NewSource's Int63
// does.
func (s *Stream) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// shift moves the last 607 draws to the front of the buffer.
func (s *Stream) shift() {
	copy(s.buf[:], s.buf[s.pos-streamLong:s.pos])
	s.pos = streamLong
}

// window returns the buffer from the 607th last draw on, with at least
// lanes elements of room past the history, shifting the history to the
// front where less is left.
func (s *Stream) window(lanes int) []uint64 {
	if len(s.buf)-s.pos < lanes {
		s.shift()
	}
	return s.buf[s.pos-streamLong:]
}

// redrawFrom is the least 63-bit draw that rand.Float64 redraws:
// float64(v) rounds to 2⁶³ from here on, a Float64 of 1.
const redrawFrom = 1<<63 - 512

// Dropout writes inverted dropout of x into out and its mask into mask:
// element i keeps where the i-th of s's Float64 values, drawn in order,
// is at least rate — mask[i] = keep and out[i] = x[i]·keep — and is
// dropped otherwise, mask[i] and out[i] +0. It draws exactly what
// DropoutEach draws from s.Rand() and writes its bits: DropoutEach is the
// definition. rate is in [0, 1); out and mask are at least as long as x.
//
// On amd64, where the products run their AVX2 bodies, whole vectors run as
// one AVX2 body per width, which computes the draws and the masks in one
// pass and compares the draws as integers, against dropThreshold(rate).
// TestDropoutBodiesMatchGo and FuzzDropout hold the bodies to DropoutEach.
func Dropout[T Float](out, mask, x []T, keep T, rate float64, s *Stream) {
	out, mask = out[:len(x)], mask[:len(x)]
	for i := 0; i < len(x); {
		done, whole := dropoutBody(out[i:], mask[i:], x[i:], keep, rate, s)
		i += done
		// The body stops before a draw Float64 redraws: that element takes
		// the loop, and the body the rest. Past the whole vectors, or where
		// no body runs, the loop takes every element left.
		end := len(x)
		if done < whole {
			end = i + 1
		}
		DropoutEach(out[i:end], mask[i:end], x[i:end], keep, rate, s.rng)
		i = end
	}
}

// DropoutEach is Dropout drawing from any rand.Rand, one Float64 per
// element, in order: the definition, and the pass of a network whose
// dropout layers hold no Stream. The choice is a bit mask, not a branch,
// which would mispredict at the rates the searches use: u and rate are
// non-negative, so u < rate is the sign of the difference of their bit
// patterns, and the mask clears every bit of a dropped element (+0, never
// −0, even for a NaN input) and keeps every bit of a kept one (a kept NaN
// stays NaN).
func DropoutEach[T Float](out, mask, x []T, keep T, rate float64, rng *rand.Rand) {
	out, mask = out[:len(x)], mask[:len(x)]
	rb := math.Float64bits(rate)
	switch x := any(x).(type) {
	case []float32:
		out, mask := any(out).([]float32), any(mask).([]float32)
		k := any(keep).(float32)
		kb := math.Float32bits(k)
		for i, v := range x {
			sel := ^uint32(int64(math.Float64bits(rng.Float64())-rb) >> 63)
			mask[i] = math.Float32frombits(kb & sel)
			out[i] = math.Float32frombits(math.Float32bits(v*k) & sel)
		}
	case []float64:
		out, mask := any(out).([]float64), any(mask).([]float64)
		k := any(keep).(float64)
		kb := math.Float64bits(k)
		for i, v := range x {
			sel := ^uint64(int64(math.Float64bits(rng.Float64())-rb) >> 63)
			mask[i] = math.Float64frombits(kb & sel)
			out[i] = math.Float64frombits(math.Float64bits(v*k) & sel)
		}
	}
}

// dropThreshold is the least 63-bit draw v that keeps its element at rate
// in [0, 1): the least v with float64(v)/2⁶³ ≥ rate, the Float64 that v
// gives, found by bisection on that very comparison. It is at most
// 2⁶³ − 1024, below every draw Float64 redraws, so every draw the bodies
// take is kept exactly where DropoutEach keeps it. c = ⌈rate·2⁶³⌉ is kept
// (float64 rounds monotonically, and rate·2⁶³ is a float64), and no v
// below c − 1024 is (float64(v) is within 512 of v below 2⁶³), so the
// bisection runs over those 1025 values.
func dropThreshold(rate float64) uint64 {
	hi := uint64(math.Ceil(rate * (1 << 63)))
	lo := hi - min(hi, 1024)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) >= rate {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Mul writes a[i]·b[i] into dst: dropout's input gradient, the output
// gradient times the mask. dst and b are at least as long as a.
func Mul[T Float](dst, a, b []T) {
	dst, b = dst[:len(a)], b[:len(a)]
	i := mulBody(dst, a, b)
	mulGo(dst[i:], a[i:], b[i:])
}

// mulGo is the definition of Mul.
func mulGo[T Float](dst, a, b []T) {
	dst, b = dst[:len(a)], b[:len(a)]
	for i, v := range a {
		dst[i] = v * b[i]
	}
}
