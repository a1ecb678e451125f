package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// layers are the cpu.<layer> names, in print order.
var layers = []string{
	"gf256", "coding", "sim_mac", "sim_engine", "core", "lp", "graph",
	"protocol", "routing", "topology", "jobs", "runtime",
}

// unprofiledLayers are layers no workload runs, so no traced pass can
// give them a share and none is printed: GF(2^16) has no workload yet.
var unprofiledLayers = []string{"gf16"}

// packageLayers maps every omnc/internal package to the layer its CPU time
// counts under. internal/sim is split by file between sim_mac and
// sim_engine (simEngineFiles). The support packages of the CLIs and the
// daemon count under jobs, the layer they are thin clients of.
var packageLayers = map[string]string{
	"benchreport":  "jobs",
	"buildinfo":    "jobs",
	"cliflags":     "jobs",
	"coding":       "coding",
	"core":         "core",
	"drift":        "protocol",
	"experiments":  "jobs",
	"faults":       "protocol",
	"gf16":         "gf16",
	"gf256":        "gf256",
	"graph":        "graph",
	"jobs":         "jobs",
	"lp":           "lp",
	"metrics":      "jobs",
	"parallel":     "jobs",
	"profiling":    "jobs",
	"protocol":     "protocol",
	"report":       "protocol",
	"routing":      "routing",
	"seedmix":      "protocol",
	"sessionbench": "jobs",
	"sim":          "sim_mac",
	"topology":     "topology",
	"trace":        "protocol",
}

// simEngineFiles are the internal/sim files of the event engines.
var simEngineFiles = map[string]bool{"engine.go": true, "parallel.go": true, "component.go": true}

// layerOf maps a profiled function to its layer, or "" when the function
// belongs to no omnc layer (package main is this benchmark).
func layerOf(fn, file string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "omnc":
		return "protocol" // the facade: omnc.Run and friends
	case strings.HasPrefix(pkg, "omnc/internal/"):
		sub := strings.TrimPrefix(pkg, "omnc/internal/")
		if sub == "sim" && simEngineFiles[filepath.Base(file)] {
			return "sim_engine"
		}
		return packageLayers[sub]
	}
	return ""
}

// funcPackage extracts the import path from a symbol name such as
// "omnc/internal/sim.(*MAC).progressiveFill".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuProfile is a CPU profile reduced to sample counts per layer.
type cpuProfile struct {
	total  int64
	layers map[string]int64
}

// share returns the layer's share of the samples.
func (p *cpuProfile) share(layer string) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.layers[layer]) / float64(p.total)
}

// profileSelf runs f under this process's CPU profiler.
func profileSelf(f func()) (*cpuProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	f()
	pprof.StopCPUProfile()
	return parseProfile(buf.Bytes())
}

// parseProfile decodes a gzipped pprof profile.proto and attributes each
// sample to the innermost frame on its stack that maps to a layer; samples
// with none count under "runtime". Only the fields this needs are decoded.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location -> function IDs, innermost first
		fnName  = map[uint64][2]int64{} // function -> string indexes of name and file
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs, vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if err == nil && len(vals) == 0 {
				err = errors.New("sample without values")
			}
			if err == nil {
				samples = append(samples, sample{locs: locs, count: int64(vals[0])})
			}
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var nf [2]int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					nf[0] = int64(v)
				case 4:
					nf[1] = int64(v)
				}
				return nil
			})
			fnName[id] = nf
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &cpuProfile{layers: map[string]int64{}}
	for _, s := range samples {
		layer := ""
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				nf := fnName[fn]
				if layer = layerOf(str(nf[0]), str(nf[1])); layer != "" {
					break stack
				}
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		p.layers[layer] += s.count
		p.total += s.count
	}
	return p, nil
}

// eachField walks the top-level fields of a protobuf message, handing f the
// field number and either its varint value or its length-delimited bytes.
func eachField(b []byte, f func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b != nil) or not.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
