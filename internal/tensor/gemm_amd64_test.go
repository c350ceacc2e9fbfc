//go:build !purego

package tensor

import (
	"bufio"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAVX2Usable pins the feature decision as a function of the three
// words it reads: every way a host can fall short gets the Go loops, and
// only the all-set case gets the AVX2 kernels.
func TestAVX2Usable(t *testing.T) {
	const ecxAll = cpuidOSXSAVE | cpuidAVX
	cases := []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             bool
	}{
		{"no AVX2 bit", ecxAll, 0, 0x7, false},
		{"AVX2 without OSXSAVE", cpuidAVX, cpuidAVX2, 0x7, false},
		{"AVX2 without AVX", cpuidOSXSAVE, cpuidAVX2, 0x7, false},
		{"XCR0 saves SSE state only", ecxAll, cpuidAVX2, 0x3, false},
		{"XCR0 saves YMM but not XMM", ecxAll, cpuidAVX2, 0x5, false},
		{"all set", ecxAll, cpuidAVX2, 0x7, true},
		{"all set, other bits too", ^uint32(0), ^uint32(0), 0xe7, true},
	}
	for _, c := range cases {
		if got := avx2Usable(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: avx2Usable(%#x, %#x, %#x) = %v, want %v", c.name, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
}

// TestDetectAVX2 drives the routine around avx2Usable with scripted CPUID
// leaves: a CPU whose highest leaf is below 7 is never asked for leaf 7,
// and XGETBV — an undefined opcode unless the OS enabled it — runs only
// after CPUID has reported OSXSAVE.
func TestDetectAVX2(t *testing.T) {
	cpu := func(maxLeaf, ecx1, ebx7 uint32) func(leaf, sub uint32) (uint32, uint32, uint32, uint32) {
		return func(leaf, sub uint32) (eax, ebx, ecx, edx uint32) {
			switch {
			case leaf == 0:
				return maxLeaf, 0, 0, 0
			case leaf > maxLeaf:
				t.Errorf("CPUID leaf %d read on a CPU whose highest leaf is %d", leaf, maxLeaf)
			case leaf == 1:
				return 0, 0, ecx1, 0
			case leaf == 7 && sub == 0:
				return 0, ebx7, 0, 0
			}
			return 0, 0, 0, 0
		}
	}
	xcr0 := func(v uint32) func() (uint32, uint32) { return func() (uint32, uint32) { return v, 0 } }
	fault := func() (uint32, uint32) {
		t.Error("XGETBV executed without OSXSAVE")
		return 0x7, 0
	}
	const ecxAll = cpuidOSXSAVE | cpuidAVX
	if !detectAVX2(cpu(0x1b, ecxAll, cpuidAVX2), xcr0(0x7)) {
		t.Error("a host with AVX2 and YMM state enabled was refused")
	}
	if detectAVX2(cpu(0x1b, ecxAll, cpuidAVX2), xcr0(0x3)) {
		t.Error("a host whose XCR0 masks the YMM state was accepted")
	}
	if detectAVX2(cpu(0x1b, cpuidAVX, cpuidAVX2), fault) {
		t.Error("a host without OSXSAVE was accepted")
	}
	if detectAVX2(cpu(6, ecxAll, cpuidAVX2), xcr0(0x7)) {
		t.Error("a host whose highest CPUID leaf is 6 was accepted")
	}
	if got := detectAVX2(cpuid, xgetbv); got != (hostVectorBytes == 32) {
		t.Errorf("detectAVX2 on this host = %v, but init chose %d-byte vectors", got, hostVectorBytes)
	}
}

// transposed returns the [cols, rows] transpose of the row-major [rows, cols] a.
func transposed[T Float](a []T, rows, cols int) []T {
	at := make([]T, len(a))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			at[c*rows+r] = a[r*cols+c]
		}
	}
	return at
}

// tileLadder calls the AVX2 body through tileBody, past gemmTile's checks —
// which no product does with kc = 0 or kc > gemmKBlock, both inside the
// kernel's contract — over every column count of the ladder (two vectors,
// one, the XMM half, single columns: n = 1…40 covers each combination in
// f32 and f64), every row count through two full tiles and a tail, the
// reduction lengths around a tile, all three kinds of init and three
// layouts of a: Gemm's and GemmAT's strides, and a row table and a group
// table with the row stride on top, rows and groups out of order and
// overlapping, groups of one term and of 48 — on finite operands, and with
// IEEE specials among them. The oracle is gemmTileGo called with the same
// arguments.
func tileLadder[T Float](t *testing.T) {
	const rowsMax, nMax, kcMax = 9, 40, gemmKBlock + 1
	for name, fill := range map[string]func(*rand.Rand, int) []T{"finite": randFloats[T], "specials": specialFloats[T]} {
		rng := rand.New(rand.NewSource(71))
		aAll, bAll := fill(rng, rowsMax*kcMax), fill(rng, kcMax*nMax)
		bias, seed := fill(rng, nMax), fill(rng, rowsMax*nMax)
		rowAt, groups := []int{6, 0, 3, 3, 1, 5, 2, 4, 0}, make([]int, kcMax)
		for g := range groups {
			groups[g] = g * 37 % 1000
		}
		got, want := make([]T, rowsMax*nMax+1), make([]T, rowsMax*nMax)
		for rows := 1; rows <= rowsMax; rows++ {
			for _, kc := range []int{0, 1, gemmKBlock - 1, gemmKBlock, gemmKBlock + 1} {
				a := aAll[:rows*kc] // [rows, kc]; empty at kc = 0, its pointer nil
				tw := 1
				if kc%48 == 0 {
					tw = 48
				}
				layouts := []struct {
					name    string
					a       []T
					ars     int
					rowAt   []int
					ats, tw int
					groups  []int
				}{
					{"Gemm", a, kc, nil, 1, max(kc, 1), oneGroup},
					{"GemmAT", transposed(a, rows, kc), 1, nil, rows, max(kc, 1), oneGroup},
					{"tables", aAll, 1, rowAt[:rows], 2, tw, groups},
				}
				for n := 1; n <= nMax; n++ {
					b := bAll[:kc*n]
					size := rows * n
					for _, init := range []string{"nil", "bias", "dst"} {
						for _, l := range layouts {
							gi, wi, stride := []T(nil), []T(nil), 0
							switch init {
							case "bias":
								gi, wi = bias[:n], bias[:n]
							case "dst":
								copy(got, seed[:size])
								copy(want, seed[:size])
								gi, wi, stride = got, want, n
							}
							const guard = 12345
							got[size] = guard
							if !tileBody(&got[0], first(gi), stride, first(l.a), l.ars, first(l.rowAt), l.ats, l.tw, &l.groups[0], first(b), rows, kc, n) {
								t.Fatal("tileBody ran no kernel")
							}
							gemmTileGo(want, wi, stride, l.a, l.ars, l.rowAt, l.ats, l.tw, l.groups, b, rows, kc, n)
							if i := sameBits(got[:size], want[:size]); i >= 0 {
								t.Fatalf("%s: rows=%d kc=%d n=%d init=%s a=%s: elem %d = %v, Go definition %v",
									name, rows, kc, n, init, l.name, i, got[i], want[i])
							}
							if got[size] != guard {
								t.Fatalf("%s: rows=%d kc=%d n=%d init=%s a=%s: the kernel wrote past its last row", name, rows, kc, n, init, l.name)
							}
						}
					}
				}
			}
		}
	}
}

// The ladders call the AVX2 kernels themselves, so they run on that body
// only.
func TestTileKernelLadderF32(t *testing.T) { onBody(t, 32, tileLadder[float32]) }
func TestTileKernelLadderF64(t *testing.T) { onBody(t, 32, tileLadder[float64]) }

// asmText is one TEXT symbol of an assembly file after a good-enough
// preprocessing: #include spliced in, and every line followed by the bodies
// of the #defines it names, so that a register or mnemonic hidden behind a
// macro counts as written on the line.
type asmText struct {
	name  string
	lines []string // instruction lines, comments stripped
}

var (
	asmDefine  = regexp.MustCompile(`^#define\s+(\w+)(\([^)]*\))?\s*(.*)$`)
	asmInclude = regexp.MustCompile(`^#include\s+"([^"]+)"`)
	asmWord    = regexp.MustCompile(`\w+`)
)

func readAsm(t *testing.T, file string, defs map[string]string, texts *[]asmText) {
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	cont := ""
	for sc.Scan() {
		line := cont + sc.Text()
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if strings.HasSuffix(line, "\\") {
			cont = strings.TrimSuffix(line, "\\") + " "
			continue
		}
		cont = ""
		switch m := asmDefine.FindStringSubmatch(line); {
		case line == "":
		case m != nil:
			defs[m[1]] = m[3]
		case strings.HasPrefix(line, "#undef"):
			delete(defs, strings.Fields(line)[1])
		case asmInclude.MatchString(line):
			if inc := asmInclude.FindStringSubmatch(line)[1]; inc != "textflag.h" {
				readAsm(t, inc, defs, texts)
			}
		case strings.HasPrefix(line, "#"): // #ifdef/#endif: both arms are read
		case strings.HasPrefix(line, "TEXT"):
			*texts = append(*texts, asmText{name: line})
		case len(*texts) > 0:
			// Expand to a fixed point: macros name macros (MULC → MULV).
			expanded, seen := line, map[string]bool{}
			for again := true; again; {
				again = false
				for _, w := range asmWord.FindAllString(expanded, -1) {
					if body, ok := defs[w]; ok && !seen[w] {
						seen[w], again = true, true
						expanded += " ; " + body
					}
				}
			}
			cur := &(*texts)[len(*texts)-1]
			for _, stmt := range strings.Split(expanded, ";") {
				if stmt = strings.TrimSpace(stmt); stmt != "" {
					cur.lines = append(cur.lines, stmt)
				}
			}
		}
	}
}

// TestAssemblySource reads the kernels as text. Every TEXT that names a YMM
// register — directly or through a macro — must execute VZEROUPPER
// immediately before each RET, or the Go code it returns to pays the
// SSE/AVX transition on its next scalar float instruction; every kernel is
// an …AVX2 one and names one (cpuid and xgetbv name none); and the arithmetic contract has no reciprocal or
// reciprocal-square-root estimate and no 64-byte vectors, so none may
// appear in any instruction, written out or behind a macro. Fused
// multiply-adds appear exactly in the Tanh and Sigmoid texts, whose EXPV is
// math.Exp's own FMA sequence and which run only where expFused says
// math.Exp takes it; no other text may name one.
func TestAssemblySource(t *testing.T) {
	files, err := filepath.Glob("*.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly files found: %v", err)
	}
	banned := regexp.MustCompile(`\b(V?RCP\w*|V?RSQRT\w*|Z([0-9]|[12][0-9]|3[01]))\b`)
	fma := regexp.MustCompile(`\bVFN?M(ADD|SUB)\w*`)
	expText := regexp.MustCompile(`·(tanh|sigmoid)F(32|64)AVX2\(SB\)`)
	ymm := regexp.MustCompile(`\bY([0-9]|1[0-5])\b`)
	wide, exps := 0, 0
	for _, f := range files {
		var texts []asmText
		readAsm(t, f, map[string]string{}, &texts)
		for _, tx := range texts {
			usesYMM, usesFMA, rets := false, false, 0
			isExp := expText.MatchString(tx.name)
			for i, l := range tx.lines {
				if m := banned.FindString(l); m != "" {
					t.Errorf("%s: %s: %s — reciprocal estimates and ZMM registers are outside the arithmetic contract", f, tx.name, m)
				}
				if m := fma.FindString(l); m != "" {
					usesFMA = true
					if !isExp {
						t.Errorf("%s: %s: %s — a fused multiply-add outside the exp texts rounds where the Go loops do not", f, tx.name, m)
					}
				}
				usesYMM = usesYMM || ymm.MatchString(l)
				if strings.Fields(l)[0] == "RET" {
					rets++
					if usesYMM && (i == 0 || tx.lines[i-1] != "VZEROUPPER") {
						t.Errorf("%s: %s: RET after YMM use without VZEROUPPER before it (previous line %q)", f, tx.name, tx.lines[max(i-1, 0)])
					}
				}
			}
			if rets == 0 {
				t.Errorf("%s: %s: no RET found: the scan lost the function", f, tx.name)
			}
			if usesYMM != strings.Contains(tx.name, "AVX2(SB)") {
				t.Errorf("%s: %s: uses YMM registers = %v, but exactly the …AVX2 kernels are vector code", f, tx.name, usesYMM)
			}
			if usesYMM {
				wide++
			}
			if isExp {
				exps++
				if !usesFMA {
					t.Errorf("%s: %s: no fused multiply-add seen: the scan lost EXPV", f, tx.name)
				}
			}
		}
	}
	if wide != 24 || exps != 4 {
		t.Errorf("%d TEXT symbols use YMM registers and %d are exp texts, want the 24 AVX2 kernels (4 products, 14 elementwise, 2 max-pool rows, 4 byte-plane splits and joins) and 4: the scan no longer sees them", wide, exps)
	}
}
