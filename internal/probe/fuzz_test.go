package probe

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzProbeWire holds the codec to what a switch and an edge rely on, for
// any bytes a wire can deliver: Decode refuses them or returns a packet that
// survives Encode → Decode unchanged, and StampHop — which mutates the
// buffer in place on the switch path — either refuses them leaving every
// byte as it was, or yields what decoding, AppendHop and re-encoding yields.
// The receive path's two in-place variants answer to the allocating ones the
// same way: DecodeInto a dirty scratch Packet is Decode, and FlipToResponse
// is Decode, ToResponse, Encode to the byte.
// The seeds run in `go test`; to fuzz beyond them:
//
//	go test ./internal/probe -run '^$' -fuzz FuzzProbeWire -fuzztime 30s
func FuzzProbeWire(f *testing.F) {
	full := &Packet{Kind: KindResponse, VMPair: 7, PathID: 3, Seq: 99, Phi: 12.5, Window: 65536, PeerPhi: 3.25, SentAt: 1 << 40}
	for i := 0; i < maxHops; i++ {
		full.AppendHop(Hop{TotalWindow: 1 << 20, TotalTokens: 80, TxRate: 9.4e9, Queue: 4096, Capacity: 10e9, LinkID: int32(i)})
	}
	fullWire, _ := full.Encode(nil)
	bare, _ := (&Packet{Kind: KindProbe, VMPair: 1, Seq: 1, Phi: 10, Window: 65536}).Encode(nil)
	for _, seed := range [][]byte{
		nil, {0x00}, bare, fullWire,
		fullWire[:len(fullWire)-1],                // a hop record short
		append([]byte{0xf2}, bare[1:]...),         // unknown kind
		append([]byte{0x1f}, bare[1:]...),         // 15 hops declared, none carried
		append(bytes.Clone(bare), 0xde, 0xad),     // trailing bytes
		bytes.Repeat([]byte{0xff}, len(fullWire)), // every field saturated
	} {
		f.Add(seed, uint32(1<<18), 40.0, 9.4e9, uint32(1500), 10e9, int32(5))
	}
	f.Fuzz(func(t *testing.T, wire []byte, w uint32, tokens, tx float64, q uint32, capacity float64, link int32) {
		hop := Hop{TotalWindow: w, TotalTokens: tokens, TxRate: tx, Queue: q, Capacity: capacity, LinkID: link}
		stamped, stampErr := StampHop(bytes.Clone(wire), hop)
		p, n, err := Decode(wire)
		scratch := Packet{Kind: KindFailure, Seq: 77, Hops: make([]Hop, 3, 7)}
		flipped, flipErr := FlipToResponse(bytes.Clone(wire), tokens)
		if err != nil {
			if stampErr == nil {
				t.Fatalf("StampHop accepted % x, which Decode refuses: %v", wire, err)
			}
			if _, intoErr := DecodeInto(&scratch, wire); intoErr != err || scratch.Seq != 77 || len(scratch.Hops) != 3 {
				t.Fatalf("DecodeInto of refused bytes: %v (Decode: %v), scratch now %+v", intoErr, err, scratch)
			}
			if flipErr != err || !bytes.Equal(flipped, wire) {
				t.Fatalf("FlipToResponse of refused bytes: %v (Decode: %v), % x → % x", flipErr, err, wire, flipped)
			}
			return
		}
		if m, err := DecodeInto(&scratch, wire); err != nil || m != n || !reflect.DeepEqual(&scratch, p) {
			t.Fatalf("DecodeInto (%d bytes, %v) yields\n %+v\nDecode (%d bytes) yields\n %+v", m, err, scratch, n, p)
		}
		if want, _ := p.ToResponse(tokens).Encode(nil); flipErr != nil || !bytes.Equal(flipped, want) {
			t.Fatalf("FlipToResponse (%v) yields\n % x\nDecode + ToResponse + Encode yields\n % x", flipErr, flipped, want)
		}
		if n != PayloadSize(len(p.Hops)) || n > len(wire) {
			t.Fatalf("Decode consumed %d of %d bytes for %d hops", n, len(wire), len(p.Hops))
		}
		again, err := p.Encode(nil)
		if err != nil {
			t.Fatalf("Encode of a decoded packet: %v", err)
		}
		if p2, _, err := Decode(again); err != nil || !reflect.DeepEqual(p, p2) {
			t.Fatalf("Encode → Decode is not a fixpoint (%v):\n got %+v\nwant %+v", err, p2, p)
		}

		if stampErr != nil {
			if stampErr != errTooLong || len(p.Hops) != maxHops || !bytes.Equal(stamped, wire) {
				t.Fatalf("StampHop refused a %d-hop probe with %v, or changed it: % x → % x", len(p.Hops), stampErr, wire, stamped)
			}
			return
		}
		if err := p.AppendHop(hop); err != nil {
			t.Fatalf("StampHop stamped hop %d, AppendHop refuses it: %v", len(p.Hops), err)
		}
		want, _ := p.Encode(nil)
		got, _, err := Decode(stamped)
		if wantPkt, _, _ := Decode(want); err != nil || len(stamped) != len(want) || !reflect.DeepEqual(got, wantPkt) {
			t.Fatalf("StampHop (%v) yields\n %+v\nDecode + AppendHop + Encode yields\n %+v", err, got, wantPkt)
		}
	})
}
