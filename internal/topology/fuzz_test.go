package topology

import (
	"fmt"
	"math"
	"testing"
)

// FuzzRoute holds Route to the digit-fold reference (TestEntityIDQuotient's
// assertions) on generated systems: 1–5 levels, one byte of shape per
// level, and a random device pair. A byte below 0x80 makes a count of 1–7,
// powers of two or not; one at or above it takes the wide count
// 1 + shape>>48 mod 65535 (up to 65 535). A count that would bring the
// device count to 2³², which New refuses, becomes 1. Systems of up to
// 2³² − 1 devices hold the multiply-high quotients to the reference near
// their proven range.
func FuzzRoute(f *testing.F) {
	f.Add(uint8(1), uint64(0x0603), uint32(0), uint32(27))                                // [4 7], root divergence
	f.Add(uint8(2), uint64(0x060201), uint32(5), uint32(40))                              // [2 3 7]
	f.Add(uint8(4), uint64(0x0504030201), uint32(17), uint32(17))                         // [2 3 4 5 6], a == b
	f.Add(uint8(4), uint64(0x0504030201), uint32(100), uint32(101))                       // leaf divergence
	f.Add(uint8(0), uint64(6), uint32(1), uint32(4))                                      // [7]
	f.Add(uint8(3), uint64(0), uint32(0), uint32(0))                                      // every count 1: one device
	f.Add(uint8(1), uint64(0xfffd<<48|0x8080), uint32(math.MaxUint32), uint32(65534))     // [65534 65534]
	f.Add(uint8(2), uint64(0xfffe<<48|0x018080), uint32(math.MaxUint32-1), uint32(1<<31)) // [65535 65535 1]: the 2 would reach 2³²
	f.Add(uint8(2), uint64(0x00ff<<48|0x800601), uint32(3<<30), uint32(12345))            // [2 7 256]
	f.Fuzz(func(t *testing.T, levels uint8, shape uint64, a, b uint32) {
		L := 1 + int(levels%5)
		lv := make([]Level, L)
		up := make([]Link, L)
		devices := 1
		for l := range lv {
			c := 1 + int(shape>>(8*l)&0xff)%7
			if shape>>(8*l)&0xff >= 0x80 {
				c = 1 + int(shape>>48)%65535
			}
			if devices > math.MaxUint32/c {
				c = 1
			}
			devices *= c
			lv[l] = Level{Name: fmt.Sprintf("l%d", l), Count: c}
			up[l] = Link{Name: fmt.Sprintf("u%d", l), Bandwidth: 1e9}
		}
		s, err := New("fuzz", lv, up)
		if err != nil {
			t.Fatal(err)
		}
		n := s.NumDevices()
		da, db := int(a)%n, int(b)%n
		checkRoute(t, s, da, db)
		checkRouteAllocs(t, s, da, db)
	})
}

// FuzzParseFaults checks the fault-spec parser's acceptance invariant:
// it never panics, and any spec it accepts yields a non-empty override
// set the target system actually admits — parse success implies
// WithOverrides succeeds. Rejections must come back as errors (the CLI
// and the serve daemon map them to diagnostics), including specs whose
// effects parse but whose composed scales fail validation (bw/NaN,
// loss=2): the parser validates every override against the system
// before returning it.
func FuzzParseFaults(f *testing.F) {
	f.Add("gpu:2/3/5:bw/10")
	f.Add("node:0/1:down")
	f.Add("NVSwitch:7:lat*4")
	f.Add("spine:*:bw/2,loss=0.01")
	f.Add("gpu:0/0/0:bw/10,lat*2; node:1/2:down")
	f.Add("1:5:bw*0.5")
	f.Add("pod:1:loss=0.25")
	f.Add("gpu:*:down")
	f.Add("gpu:0/0/0:bw/0.125,bw*8")
	f.Add(" ; ;")
	f.Add("gpu:0/0/0:loss=nan")
	f.Fuzz(func(t *testing.T, spec string) {
		sys := SuperPodSystem(3, 4)
		ovs, err := ParseFaults(sys, spec)
		if err != nil {
			if ovs != nil {
				t.Fatalf("ParseFaults(%q) returned overrides alongside error %v", spec, err)
			}
			return
		}
		if len(ovs) == 0 {
			t.Fatalf("ParseFaults(%q) accepted the spec but produced no overrides", spec)
		}
		if _, err := sys.WithOverrides(ovs...); err != nil {
			t.Fatalf("ParseFaults(%q) produced overrides the system rejects: %v", spec, err)
		}
	})
}
