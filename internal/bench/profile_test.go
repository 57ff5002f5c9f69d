package bench

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"hdsmt/internal/isa"
	"hdsmt/internal/trace"
)

// TestDCacheMissesPinned checks every benchmark's HEUR profile, its
// L1DMisses table entry, against the profiling walk at ProfileLen. The
// counts order the §2.1 thread list, so any change to the stream, the walk
// or the L1D model that moves one changes HEUR mappings; the failure
// prints the table line to paste.
func TestDCacheMissesPinned(t *testing.T) {
	for _, b := range All() {
		m, err := CountDCacheMisses(b, ProfileLen)
		if err != nil {
			t.Fatal(err)
		}
		if m != b.L1DMisses {
			t.Errorf("%s: %d L1D misses over %d instructions, table says %d; table line:\n\tmk(%q, %v, 0x%X, %d, func(p *trace.GenParams) {",
				b.Name, m, ProfileLen, b.L1DMisses, b.Name, b.Class, b.Params.Seed, m)
		}
	}
}

// programDigest hashes every field of every static instruction of p, its
// block boundaries and its function entries.
func programDigest(p *trace.Program) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte(p.Name))
	put(uint64(len(p.Blocks)))
	for _, b := range p.Blocks {
		put(uint64(len(b.Insts)))
		for i := range b.Insts {
			in := &b.Insts[i]
			put(in.PC)
			put(uint64(in.Index))
			put(uint64(in.Class))
			put(uint64(in.Dest))
			put(uint64(in.Src1))
			put(uint64(in.Src2))
			put(in.Target)
			put(uint64(in.Kind))
			put(math.Float64bits(in.TakenProb))
			put(uint64(in.Period))
			put(uint64(in.Pattern))
			put(in.Region)
			put(uint64(in.Stride))
			put(in.MemBase)
		}
	}
	put(uint64(len(p.Entries)))
	for _, e := range p.Entries {
		put(uint64(e))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestProgramDigestsPinned pins every benchmark's program, built at the
// default code base and at the base the simulator gives a workload's
// second thread: program construction must keep its RNG draw order and
// layout exactly, whatever it does to allocate less.
func TestProgramDigestsPinned(t *testing.T) {
	want := map[string][2]string{
		"gzip":    {"ff65a9b3e535edf6396860fb", "ad6e07d2caf441157eca508f"},
		"vpr":     {"0c984238b0ef3a9c6cde4255", "277a8ee49f97f5fae01a95b1"},
		"gcc":     {"cec54a1b51192e2ff6b31a24", "5ff133e0a68d04ed92ed8081"},
		"mcf":     {"7091e6913b85c7142c7411ef", "875617d43ae6769a30bf0fef"},
		"crafty":  {"10fe48cccd424c5e45d56550", "f6a1d523fca02a365a67480e"},
		"parser":  {"f76a6f7e41a3c5e0268fa7c1", "e5e2f36476ac6ac9d057bcc4"},
		"eon":     {"18ec27ac58f8585c0b7d91b2", "ee964047946d70698dea91e8"},
		"perlbmk": {"b07036d611f2130c2cf94201", "43d5548898abcb383980f764"},
		"gap":     {"cde5d48d0b357ec0be0f2e20", "0cb30db4d64cd1cdcdedf826"},
		"vortex":  {"ccd07d5c653a4400dad73ff4", "708e825e650d6776d90852f2"},
		"bzip2":   {"6f024025176479f8636faa17", "e3e7733f27570a6ee1b5c2a7"},
		"twolf":   {"5ccbbf139ca9f4817d291a75", "511ad95609f840b9574d90d5"},
	}
	for _, b := range All() {
		var got [2]string
		for i, base := range []uint64{0, 0x4111040} {
			p, err := b.Build(base)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = programDigest(p)
		}
		if w, ok := want[b.Name]; !ok || w != got {
			t.Errorf("%s: program digests %v, pinned %v", b.Name, got, w)
		}
	}
}

// TestAdvanceMemMatchesNextInto: for every benchmark, Advance's memory
// callback reports exactly the loads and stores a NextInto walk
// materializes — class, sequence number and address, in order — with and
// without a control callback, and leaves the stream on the same next
// instruction.
func TestAdvanceMemMatchesNextInto(t *testing.T) {
	type memRef struct {
		class     isa.Class
		seq, addr uint64
	}
	const n = 20_000
	for _, b := range All() {
		prog, err := b.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []uint64{0, 0x10000000} {
			ref := trace.NewStream(prog, b.Params.Seed, base)
			var want []memRef
			var in isa.Instruction
			controls := 0
			for i := 0; i < n; i++ {
				ref.NextInto(&in)
				if in.Class.IsMem() {
					want = append(want, memRef{in.Class, in.Seq, in.EffAddr})
				}
				if in.Class.IsControl() {
					controls++
				}
			}
			var wantNext isa.Instruction
			ref.NextInto(&wantNext)
			for _, withCtl := range []bool{false, true} {
				s := trace.NewStream(prog, b.Params.Seed, base)
				var got []memRef
				var ctl trace.ControlFunc
				seen := 0
				if withCtl {
					ctl = func(isa.Class, uint64, uint64, bool) { seen++ }
				}
				s.Advance(n, ctl, func(class isa.Class, seq, addr uint64) {
					got = append(got, memRef{class, seq, addr})
				})
				if len(got) != len(want) {
					t.Fatalf("%s base %#x ctl %v: %d memory references, NextInto gives %d",
						b.Name, base, withCtl, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s base %#x ctl %v: reference %d is %+v, NextInto gives %+v",
							b.Name, base, withCtl, i, got[i], want[i])
					}
				}
				if withCtl && seen != controls {
					t.Errorf("%s base %#x: %d control callbacks, NextInto gives %d control instructions",
						b.Name, base, seen, controls)
				}
				s.NextInto(&in)
				if in != wantNext {
					t.Fatalf("%s base %#x ctl %v: next instruction %+v, want %+v", b.Name, base, withCtl, in, wantNext)
				}
			}
		}
	}
}
