package jobs

import (
	"reflect"
	"testing"

	"omnc/internal/faults"
)

// FuzzDecodeSpec throws arbitrary bytes at the Spec decoder, the daemon's
// only door for untrusted job submissions. The contract under test: Decode
// never panics, and an accepted Spec survives Encode→Decode unchanged with
// an unchanged content address.
func FuzzDecodeSpec(f *testing.F) {
	src, dst := 12, 91
	plan := &faults.Plan{Seed: 1, Events: []faults.Event{
		{At: 2, Kind: faults.NodeCrash, Node: 3},
		{At: 6, Kind: faults.NodeRecover, Node: 3},
	}}
	// The Specs the CLIs build and the unit tests round-trip.
	for _, s := range []Spec{
		{Version: 1, Kind: KindFig1},
		{Version: 1, Kind: KindComparison, Figures: []string{"2l"}, Sessions: 2, Duration: 60, Seed: 7, Workers: 2},
		{Version: 1, Kind: KindComparison, Figures: []string{"3", "2l"}, Protocols: []string{"omnc", "etx"}, MAC: "csma"},
		{Version: 1, Kind: KindSession, Protocol: "more", Src: &src, Dst: &dst, Seed: 3, Scheme: "rs", Redundancy: 1.5},
		{Version: 1, Kind: KindSession, CBRRate: -1, Trials: 4, Field: "16", EngineWorkers: 2},
		{Version: 1, Kind: KindSession, Faults: plan, Report: true, Trace: true},
		{Version: 1, Kind: KindTopo, Nodes: 50, MeanQuality: 0.91},
		{Version: 1, Kind: KindMulti, Sessions: 2, Duration: 60, Seed: 7, Workers: 2},
		{Version: 1, Kind: KindLoopback, Duration: 0.5, Trials: 2, Rate: 2e5, GenerationSize: 8, BlockSize: 64},
		{Version: 1, Kind: KindBench, Iters: 2},
	} {
		buf, err := s.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// The daemon tests' submissions, accepted and rejected.
	for _, s := range []string{
		`{"version":1,"kind":"topo","seed":3,"nodes":60,"density":6}`,
		`{"version":1,"kind":"comparison","seed":1,"sessions":8,"duration":200,"figures":["2l"]}`,
		`{"version":1,"kind":"fig1","figures":[],"protocols":[]}`,
		`{"version":1,"kind":"fig1","sessoins":3}`,
		`{"version":1,"kind":"fig1"}{"version":1,"kind":"bench"}`,
		`{"version":9,"kind":"topo"}`,
		`{"version":1,"kind":"warp"}`,
		`not json`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		buf, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted spec failed to encode: %v", err)
		}
		again, err := Decode(buf)
		if err != nil {
			t.Fatalf("accepted spec failed to re-decode: %v\n%s", err, buf)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip drifted:\n got %+v\nwant %+v", again, s)
		}
		if again.Hash() != s.Hash() {
			t.Fatalf("hash %s changed to %s across the round trip", s.Hash(), again.Hash())
		}
	})
}
