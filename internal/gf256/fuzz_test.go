package gf256

import (
	"bytes"
	"testing"
)

// refMulAdd is the byte-at-a-time reference: shift-and-reduce multiplication
// with no tables and no word tricks, so it shares no machinery with the
// kernel under test.
func refMulAdd(dst, src []byte, c byte) {
	for i := range src {
		dst[i] ^= mulSlow(c, src[i])
	}
}

func refMul(dst, src []byte, c byte) {
	for i := range src {
		dst[i] = mulSlow(c, src[i])
	}
}

// naiveMulAdd is the paper's "traditional lookup-table approach": one
// log/exp lookup pair per byte. It is the second reference and the
// baseline of the Sec. 4 claim benchmark.
func naiveMulAdd(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	logC := int(logTable[c])
	for i, v := range src {
		if v != 0 {
			dst[i] ^= expTable[logC+int(logTable[v])]
		}
	}
}

func naiveMul(dst, src []byte, c byte) {
	logC := int(logTable[c])
	for i, v := range src {
		if c == 0 || v == 0 {
			dst[i] = 0
		} else {
			dst[i] = expTable[logC+int(logTable[v])]
		}
	}
}

// bulkOp is one bulk implementation under test.
type bulkOp struct {
	name string
	f    func(dst, src []byte, c byte)
}

// mulAddOps are the production multiply-add entry points: the package
// function and the frozen Kernel handle. Each is held to both references.
var mulAddOps = []bulkOp{{"MulAddSlice", MulAddSlice}, {"Kernel.MulAdd", KernelFor(StrategyAccel).MulAdd}}

// FuzzGFKernels differentially tests the bulk kernel — MulAddSlice (and its
// c==1 xorSlice fast path), MulSlice, ScaleSlice and the frozen
// Kernel.MulAdd — against the naive log/exp and shift-and-reduce references,
// across random lengths (unrolled loops plus tails), random buffer
// alignments and dst==src aliasing (the in-place Scale pattern; partial
// overlap stays forbidden by contract).
func FuzzGFKernels(f *testing.F) {
	f.Add([]byte{}, byte(0), uint8(0), false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(1), uint8(1), false)
	f.Add(bytes.Repeat([]byte{0xFF}, 64), byte(0x53), uint8(7), true)
	f.Add([]byte{0x80, 0x00, 0x1B, 0xCA}, byte(0x02), uint8(3), false)
	f.Add(bytes.Repeat([]byte{0xAA, 0x55}, 100), byte(0xFE), uint8(5), true)

	f.Fuzz(func(t *testing.T, data []byte, c byte, offset uint8, alias bool) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		// Rebase the operands at a fuzzed offset inside larger backings so
		// the word loops see every alignment class.
		off := int(offset % 16)
		srcBack := make([]byte, off+len(data))
		copy(srcBack[off:], data)
		src := srcBack[off : off+len(data)]
		dstInit := make([]byte, len(data))
		for i := range dstInit {
			dstInit[i] = byte(i*131) ^ c
		}

		// want runs both references and fails unless they agree.
		want := func(ref, naive func(dst, src []byte, c byte), dst, src []byte) []byte {
			a := append([]byte(nil), dst...)
			ref(a, append([]byte(nil), src...), c)
			b := append([]byte(nil), dst...)
			naive(b, append([]byte(nil), src...), c)
			if !bytes.Equal(a, b) {
				t.Fatalf("references disagree (c=%#x, n=%d): shift-reduce %x, naive %x", c, len(data), a, b)
			}
			return a
		}
		wantAdd := want(refMulAdd, naiveMulAdd, dstInit, src)
		wantMul := want(refMul, naiveMul, dstInit, src)
		wantSelfAdd := want(refMulAdd, naiveMulAdd, src, src)

		dst := make([]byte, off+len(data))[off:]
		buf := make([]byte, off+len(data))[off:]
		for _, op := range mulAddOps {
			copy(dst, dstInit)
			op.f(dst, src, c)
			if !bytes.Equal(dst, wantAdd) {
				t.Fatalf("%s(c=%#x, n=%d, off=%d) = %x, want %x", op.name, c, len(data), off, dst, wantAdd)
			}
			if alias {
				// dst == src exactly: the one aliasing shape the contract
				// permits, exercised by in-place elimination.
				copy(buf, src)
				op.f(buf, buf, c)
				if !bytes.Equal(buf, wantSelfAdd) {
					t.Fatalf("%s self-alias(c=%#x, n=%d, off=%d) = %x, want %x", op.name, c, len(data), off, buf, wantSelfAdd)
				}
			}
		}
		copy(dst, dstInit)
		MulSlice(dst, src, c)
		if !bytes.Equal(dst, wantMul) {
			t.Fatalf("MulSlice(c=%#x, n=%d, off=%d) = %x, want %x", c, len(data), off, dst, wantMul)
		}
		if alias {
			copy(buf, src)
			ScaleSlice(buf, c)
			if !bytes.Equal(buf, wantMul) {
				t.Fatalf("ScaleSlice(c=%#x, n=%d, off=%d) = %x, want %x", c, len(data), off, buf, wantMul)
			}
		}
	})
}
