package probe

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Kind:    KindProbe,
		VMPair:  0xdeadbeef,
		PathID:  7,
		Seq:     42,
		Phi:     1234.5,
		Window:  64 * 1024,
		PeerPhi: 99.25,
		SentAt:  123456789,
		Hops: []Hop{
			{TotalWindow: 256 * 1024, TotalTokens: 500.3, TxRate: 9.4e9, Queue: 12 * 1024, Capacity: 10e9, LinkID: 3},
			{TotalWindow: 1024 * 1024, TotalTokens: 6000.7, TxRate: 96e9, Queue: 0, Capacity: 100e9, LinkID: 17},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := samplePacket()
	buf, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.Size()-headerOverhead {
		t.Fatalf("encoded %d bytes, Size()-overhead = %d", len(buf), p.Size()-headerOverhead)
	}
	q, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if q.Kind != p.Kind || q.VMPair != p.VMPair || q.PathID != p.PathID ||
		q.Seq != p.Seq || q.SentAt != p.SentAt {
		t.Fatalf("preamble mismatch: %+v vs %+v", q, p)
	}
	if math.Abs(q.Phi-p.Phi) > phiUnit/2+1e-9 || math.Abs(q.PeerPhi-p.PeerPhi) > phiUnit/2+1e-9 {
		t.Fatalf("token mismatch: %v/%v vs %v/%v", q.Phi, q.PeerPhi, p.Phi, p.PeerPhi)
	}
	if len(q.Hops) != len(p.Hops) {
		t.Fatalf("hops = %d, want %d", len(q.Hops), len(p.Hops))
	}
	for i := range p.Hops {
		in, out := p.Hops[i], q.Hops[i]
		if out.LinkID != in.LinkID {
			t.Errorf("hop %d link id mismatch: %+v vs %+v", i, out, in)
		}
		if math.Abs(out.TotalTokens-in.TotalTokens) > totalPhiUnit/2+1e-9 {
			t.Errorf("hop %d tokens %v vs %v", i, out.TotalTokens, in.TotalTokens)
		}
		if math.Abs(float64(out.TotalWindow)-float64(in.TotalWindow)) > windowUnit/2+1 {
			t.Errorf("hop %d window %d vs %d", i, out.TotalWindow, in.TotalWindow)
		}
		if math.Abs(out.TxRate-in.TxRate) > txUnit/2+1 {
			t.Errorf("hop %d tx %v vs %v", i, out.TxRate, in.TxRate)
		}
		if math.Abs(float64(out.Queue)-float64(in.Queue)) > queueUnit/2+1 {
			t.Errorf("hop %d queue %d vs %d", i, out.Queue, in.Queue)
		}
		if out.Capacity != in.Capacity {
			t.Errorf("hop %d capacity %v vs %v", i, out.Capacity, in.Capacity)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	p := samplePacket()
	buf, _ := p.Encode(nil)
	for i := 0; i < len(buf); i++ {
		if _, _, err := Decode(buf[:i]); err == nil {
			t.Fatalf("Decode of %d-byte prefix succeeded", i)
		}
	}
}

func TestDecodeBadKind(t *testing.T) {
	buf := make([]byte, preambleLen)
	buf[0] = 0x30 // kind bits 3: invalid
	if _, _, err := Decode(buf); err != errBadKind {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

func TestEncodeBadKind(t *testing.T) {
	p := &Packet{Kind: 3}
	if _, err := p.Encode(nil); err != errBadKind {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

func TestMaxHops(t *testing.T) {
	p := &Packet{Kind: KindProbe}
	for i := 0; i < maxHops; i++ {
		if err := p.AppendHop(Hop{}); err != nil {
			t.Fatalf("AppendHop %d: %v", i, err)
		}
	}
	if err := p.AppendHop(Hop{}); err != errTooLong {
		t.Fatalf("AppendHop beyond max: %v, want ErrTooLong", err)
	}
	if _, err := p.Encode(nil); err != nil {
		t.Fatalf("Encode at MaxHops: %v", err)
	}
	p.Hops = append(p.Hops, Hop{})
	if _, err := p.Encode(nil); err != errTooLong {
		t.Fatalf("Encode beyond MaxHops: %v, want ErrTooLong", err)
	}
}

func TestAllKindsRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindProbe, KindResponse, KindFailure, KindFinish} {
		p := &Packet{Kind: k}
		buf, err := p.Encode(nil)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		q, _, err := Decode(buf)
		if err != nil || q.Kind != k {
			t.Fatalf("%v round trip: kind=%v err=%v", k, q.Kind, err)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindProbe.String() != "probe" || KindFinish.String() != "finish" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() != "kind(9)" {
		t.Errorf("unknown kind = %q", Kind(9).String())
	}
}

func TestSpeedClassRoundTrip(t *testing.T) {
	for _, bps := range []float64{1e9, 10e9, 25e9, 40e9, 100e9, 400e9} {
		if got := decodeSpeedClass(encodeSpeedClass(bps)); got != bps {
			t.Errorf("speed %v → %v", bps, got)
		}
	}
	if decodeSpeedClass(15) != 0 {
		t.Error("out-of-range class must decode to 0")
	}
}

func TestPhiClamp(t *testing.T) {
	p := &Packet{Kind: KindProbe, Phi: 1 << 25} // exceeds 24-bit millitokens
	buf, err := p.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	q, _, _ := Decode(buf)
	if q.Phi != float64(1<<24-1)*phiUnit {
		t.Errorf("Phi = %v, want clamped 24-bit max", q.Phi)
	}
}

func TestWireSize(t *testing.T) {
	// Paper: with a 5-hop diameter total telemetry < 100 bytes.
	intBytes := WireSize(5) - headerOverhead
	if intBytes >= 100 {
		t.Errorf("5-hop INT payload = %d bytes, paper says <100", intBytes)
	}
	if WireSize(0) != headerOverhead+preambleLen {
		t.Error("WireSize(0) inconsistent")
	}
}

func TestToResponse(t *testing.T) {
	p := samplePacket()
	r := p.ToResponse(777)
	if r.Kind != KindResponse || r.PeerPhi != 777 {
		t.Fatalf("response = %+v", r)
	}
	if len(r.Hops) != len(p.Hops) {
		t.Fatal("hops not copied")
	}
	// Mutating the response's hops must not alias the probe's.
	r.Hops[0].TotalTokens = 1
	if p.Hops[0].TotalTokens == 1 {
		t.Fatal("ToResponse aliases hop storage")
	}
}

func TestBottleneckIndex(t *testing.T) {
	p := &Packet{
		Kind: KindProbe, Phi: 10,
		Hops: []Hop{
			{TotalTokens: 20, Capacity: 10e9},  // share 5e9
			{TotalTokens: 100, Capacity: 10e9}, // share 1e9 ← bottleneck
			{TotalTokens: 10, Capacity: 10e9},  // share 10e9
		},
	}
	if got := p.BottleneckIndex(); got != 1 {
		t.Fatalf("BottleneckIndex = %d, want 1", got)
	}
	empty := &Packet{}
	if empty.BottleneckIndex() != -1 {
		t.Error("empty packet bottleneck != -1")
	}
	// Zero total tokens must not divide by zero.
	z := &Packet{Phi: 1, Hops: []Hop{{TotalTokens: 0, Capacity: 1e9}}}
	if z.BottleneckIndex() != 0 {
		t.Error("zero-token hop not handled")
	}
}

// Property: Encode→Decode round-trips any packet within quantization
// bounds and never panics or over/under-reads.
func TestRoundTripProperty(t *testing.T) {
	f := func(vm uint32, path uint16, seq uint32, phi uint32, win uint32, nhRaw uint8,
		tw uint32, tk uint16, tx uint32, qlen uint16) bool {
		p := &Packet{
			Kind: KindProbe, VMPair: vm, PathID: path, Seq: seq,
			Phi: float64(phi%(1<<24)) * phiUnit, Window: win % (60 << 20),
		}
		nh := int(nhRaw % (maxHops + 1))
		for i := 0; i < nh; i++ {
			p.Hops = append(p.Hops, Hop{
				TotalWindow: tw % (60 << 20),
				TotalTokens: float64(tk) * totalPhiUnit,
				TxRate:      float64(uint64(tx) * 29 % 100_000_000_000),
				Queue:       uint32(qlen) % (250 << 10),
				Capacity:    10e9,
				LinkID:      int32(i),
			})
		}
		buf, err := p.Encode(nil)
		if err != nil {
			return false
		}
		q, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if q.VMPair != p.VMPair || len(q.Hops) != nh {
			return false
		}
		if math.Abs(q.Phi-p.Phi) > phiUnit/2+1e-9 {
			return false
		}
		for i := range q.Hops {
			if math.Abs(q.Hops[i].TotalTokens-p.Hops[i].TotalTokens) > totalPhiUnit/2+1e-9 {
				return false
			}
			if math.Abs(q.Hops[i].TxRate-p.Hops[i].TxRate) > txUnit/2+1 {
				return false
			}
			if math.Abs(float64(q.Hops[i].Queue)-float64(p.Hops[i].Queue)) > queueUnit/2+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		if _, err := p.Encode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	p := samplePacket()
	buf, _ := p.Encode(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStampHopMatchesDecodeAppendEncode: stamping a record onto the wire in
// place must produce the bytes the switch's old decode → AppendHop →
// re-encode produced, for every hop count, with trailing garbage dropped,
// reusing spare capacity; at maxHops and on a malformed buffer it must leave
// the buffer alone.
func TestStampHopMatchesDecodeAppendEncode(t *testing.T) {
	stamp := Hop{TotalWindow: 3 << 20, TotalTokens: 123.4, TxRate: 7.7e9, Queue: 9000, Capacity: 9.5e9, LinkID: 42}
	for nh := 0; nh <= maxHops; nh++ {
		p := samplePacket()
		p.Hops = nil
		for i := 0; i < nh; i++ {
			p.Hops = append(p.Hops, Hop{TotalWindow: uint32(i) << 12, TotalTokens: float64(i), TxRate: 1e9 * float64(i),
				Queue: uint32(64 * i), Capacity: 25e9, LinkID: int32(i)})
		}
		wire, err := p.Encode(make([]byte, 0, 512))
		if err != nil {
			t.Fatal(err)
		}
		hdr, n, err := DecodeHeader(wire)
		full, _, _ := Decode(wire)
		if err != nil || n != nh || hdr.Hops != nil {
			t.Fatalf("DecodeHeader(%d hops) = %d hops, %v, Hops %v", nh, n, err, hdr.Hops)
		}
		hdr.Hops = full.Hops
		if !reflect.DeepEqual(&hdr, full) {
			t.Fatalf("DecodeHeader %+v differs from Decode %+v", hdr, *full)
		}
		var want []byte
		if err := full.AppendHop(stamp); err == nil {
			want, _ = full.Encode(nil)
		}
		got, err := StampHop(append(wire, 0xde, 0xad), stamp) // trailing bytes past the declared records
		if nh == maxHops {
			if err != errTooLong || len(got) != len(wire)+2 {
				t.Fatalf("StampHop at MaxHops: err %v, %d bytes", err, len(got))
			}
			continue
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%d hops: StampHop = %x, %v\nwant %x", nh, got, err, want)
		}
		if &got[0] != &wire[0] {
			t.Errorf("%d hops: StampHop reallocated a buffer with spare capacity", nh)
		}
	}
	for _, bad := range [][]byte{nil, {0x10}, {0xf0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27}} {
		if got, err := StampHop(bad, stamp); err == nil || len(got) != len(bad) {
			t.Errorf("StampHop(%x) = %x, %v; want the buffer back with an error", bad, got, err)
		}
	}
	// A buffer whose nHop nibble claims more records than it holds.
	p := samplePacket()
	wire, _ := p.Encode(nil)
	if _, err := StampHop(wire[:len(wire)-1], stamp); err != errTruncated {
		t.Errorf("StampHop on a short buffer: %v, want ErrTruncated", err)
	}
}
