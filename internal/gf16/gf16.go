// Package gf16 implements arithmetic over the Galois field GF(2^16) with the
// reduction polynomial x^16 + x^12 + x^3 + x + 1 (0x1100B), the 16-bit field
// option of the coding layer. A larger field drops the probability that a
// random combination is non-innovative from ~1/256 per packet to ~1/65536, at
// the cost of doubled coefficient overhead — the classic RLNC field-size
// trade-off the -field knob exposes.
//
// Elements are packed into byte slices as little-endian uint16 lanes. The
// bulk kernels use per-scalar split tables: multiplication by a fixed c
// is GF(2)-linear, so c*x resolves as loTab[x & 0xFF] ^ hiTab[x >> 8] against
// two 256-entry tables built from c's sixteen bit-plane products in a few
// hundred XORs — no 8 GiB product table, no per-call log/exp chains.
//
// All functions are safe for concurrent use; the per-scalar tables live on
// the caller's stack.
package gf16

import "math/bits"

// Poly is the reduction polynomial with the leading x^16 bit.
const Poly = 0x1100B

// Add returns a + b; addition and subtraction coincide (XOR).
func Add(a, b uint16) uint16 { return a ^ b }

// mulX multiplies by x (doubles) with reduction.
func mulX(v uint16) uint16 {
	hi := v & 0x8000
	v <<= 1
	if hi != 0 {
		v ^= Poly & 0xFFFF
	}
	return v
}

// Mul returns a * b by shift-and-reduce. Scalar multiplies are rare in the
// coding layer (pivot normalization, tests); the bulk kernels below carry
// the hot path.
func Mul(a, b uint16) uint16 {
	var p uint16
	for b > 0 {
		if b&1 != 0 {
			p ^= a
		}
		a = mulX(a)
		b >>= 1
	}
	return p
}

// Inv returns the multiplicative inverse of a via Fermat's little theorem
// (a^(2^16-2)). Inv(0) panics, matching gf256.Inv.
func Inv(a uint16) uint16 {
	if a == 0 {
		panic("gf16: inverse of zero")
	}
	// 2^16 - 2 = 0xFFFE: square-and-multiply over the fixed exponent.
	result := uint16(1)
	base := a
	for e := 0xFFFE; e > 0; e >>= 1 {
		if e&1 != 0 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
	}
	return result
}

// scalarTables builds the two 256-entry half-element product tables for c:
// lo[v] = c*v and hi[v] = c*(v<<8). Each table entry is the XOR of the
// bit-plane products c*x^k over v's set bits, filled in subset order so every
// entry costs one XOR.
func scalarTables(c uint16) (lo, hi [256]uint16) {
	var pow [16]uint16 // pow[k] = c * x^k
	v := c
	for k := 0; k < 16; k++ {
		pow[k] = v
		v = mulX(v)
	}
	for b := 1; b < 256; b++ {
		k := bits.TrailingZeros(uint(b))
		lo[b] = lo[b&(b-1)] ^ pow[k]
		hi[b] = hi[b&(b-1)] ^ pow[8+k]
	}
	return lo, hi
}

// MulAdd computes dst[i] ^= c * src[i] over little-endian uint16 lanes. The
// slices must have equal, even length and must not partially overlap
// (identical slices are fine).
func MulAdd(dst, src []byte, c uint16) {
	if len(dst) != len(src) {
		panic("gf16: MulAdd length mismatch")
	}
	if len(dst)%2 != 0 {
		panic("gf16: MulAdd odd length")
	}
	switch c {
	case 0:
		return
	case 1:
		for i := range dst {
			dst[i] ^= src[i]
		}
		return
	}
	lo, hi := scalarTables(c)
	n := len(src)
	for i := 0; i+2 <= n; i += 2 {
		s := src[i : i+2 : i+2]
		d := dst[i : i+2 : i+2]
		p := lo[s[0]] ^ hi[s[1]]
		d[0] ^= byte(p)
		d[1] ^= byte(p >> 8)
	}
}

// MulSlice computes dst[i] = c * src[i] over little-endian uint16 lanes,
// under the same length and aliasing contract as MulAdd.
func MulSlice(dst, src []byte, c uint16) {
	if len(dst) != len(src) {
		panic("gf16: MulSlice length mismatch")
	}
	if len(dst)%2 != 0 {
		panic("gf16: MulSlice odd length")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
		return
	case 1:
		copy(dst, src)
		return
	}
	lo, hi := scalarTables(c)
	n := len(src)
	for i := 0; i+2 <= n; i += 2 {
		s := src[i : i+2 : i+2]
		d := dst[i : i+2 : i+2]
		p := lo[s[0]] ^ hi[s[1]]
		d[0] = byte(p)
		d[1] = byte(p >> 8)
	}
}

// Elem reads element i from a packed slice.
func Elem(b []byte, i int) uint16 {
	return uint16(b[2*i]) | uint16(b[2*i+1])<<8
}

// SetElem writes element i of a packed slice.
func SetElem(b []byte, i int, v uint16) {
	b[2*i] = byte(v)
	b[2*i+1] = byte(v >> 8)
}
