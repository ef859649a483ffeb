// Package probe implements the μFAB probe/response wire format of
// Appendix G. Probes are the only coordination channel between the active
// edge (μFAB-E) and the informative core (μFAB-C): the source edge inserts
// its VM-pair's bandwidth token φ and per-link sending window w; every
// switch on the path appends an INT hop record carrying the link's total
// sending window W_l, total token Φ_l, TX rate tx_l, queue size q_l, and
// capacity C_l; the destination edge echoes everything back in a response
// together with its local minimum-bandwidth token.
//
// The encoding follows the paper's field widths (type 4 b, nHop 4 b,
// φ 24 b, and 64-bit hop records of W 16 b | Φ 16 b | tx 16 b | q 12 b |
// C 4 b). Quantization units are chosen so the 16/12-bit fields cover
// data-center magnitudes; Encode→Decode round-trips are exact up to those
// units (see the package tests). A small simulation preamble (VM-pair id,
// path id, sequence number, timestamp, sender window, and the receiver
// token) carries the identifiers a real deployment would take from the
// outer Ethernet/IP/SR headers.
package probe

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Kind is the probe packet type from the 4-bit type field.
type Kind uint8

// Probe packet types. Finish probes tell switches a VM-pair has gone
// inactive so they can deduct its φ and w from Φ_l and W_l (§3.6).
const (
	KindProbe    Kind = 1
	KindResponse Kind = 2
	KindFailure  Kind = 4
	KindFinish   Kind = 8
)

func (k Kind) String() string {
	switch k {
	case KindProbe:
		return "probe"
	case KindResponse:
		return "response"
	case KindFailure:
		return "failure"
	case KindFinish:
		return "finish"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// TargetUtilization is η: both ends of the protocol hold Φ_l and the
// allocation against the target capacity C̄_l = η·C_l, so a 5 % headroom
// absorbs transient bursts and table-collision under-counts (§3.3).
const TargetUtilization = 0.95

// maxHops is the largest number of INT hop records a probe can carry,
// bounded by the 4-bit nHop field.
const maxHops = 15

// Quantization units for the INT fields.
const (
	// windowUnit quantizes sending windows (w, W_l) in bytes: 16 bits ×
	// 256 B covers 16 MiB, far above 3·BDP of any DCN path, while a
	// single-MTU window still encodes without vanishing.
	windowUnit = 256
	// queueUnit quantizes queue sizes in bytes: 12 bits × 64 B covers
	// 256 KiB, beyond the shallow-buffer regime μFAB keeps switches in.
	queueUnit = 64
	// txUnit quantizes TX rates in bits/s: 16 bits × 2 Mbps covers
	// 131 Gbps.
	txUnit = 2e6
	// phiUnit quantizes per-VM-pair tokens φ (24-bit field) in
	// millitokens: Guarantee Partitioning yields fractional tokens.
	phiUnit = 1e-3
	// totalPhiUnit quantizes the per-link total Φ_l (16-bit field) in
	// decitokens: 6553 tokens cover a 655 Gbps subscription at
	// B_u = 100 Mbps.
	totalPhiUnit = 1e-1
)

// speedClasses maps the 4-bit C_l field to port speeds in bits/s.
var speedClasses = [...]float64{
	0, 1e9, 2.5e9, 5e9, 10e9, 25e9, 40e9, 50e9, 100e9, 200e9, 400e9, 800e9,
}

// encodeSpeedClass returns the 4-bit class whose speed is closest to the
// given capacity in bits/s.
func encodeSpeedClass(bps float64) uint8 {
	best, bestDiff := 0, -1.0
	for i, s := range speedClasses {
		d := bps - s
		if d < 0 {
			d = -d
		}
		if bestDiff < 0 || d < bestDiff {
			best, bestDiff = i, d
		}
	}
	return uint8(best)
}

// decodeSpeedClass returns the port speed in bits/s for a 4-bit class.
func decodeSpeedClass(class uint8) float64 {
	if int(class) >= len(speedClasses) {
		return 0
	}
	return speedClasses[class]
}

// Hop is one switch's INT record, in physical units.
type Hop struct {
	// TotalWindow is W_l: the sum of the sending windows of all active
	// VM-pairs traversing the link, in bytes.
	TotalWindow uint32
	// TotalTokens is Φ_l: the total bandwidth token of all active
	// VM-pairs on the link, in tokens (decitoken wire resolution).
	TotalTokens float64
	// TxRate is the link's measured output rate in bits/s.
	TxRate float64
	// Queue is the link's real-time egress queue size in bytes.
	Queue uint32
	// Capacity is the link's physical line rate in bits/s (a 4-bit
	// speed class on the wire).
	Capacity float64
	// LinkID identifies the link in simulation (carried in the
	// preamble-extended hop record; a hardware deployment derives it
	// from the SR header instead).
	LinkID int32
}

// Packet is a decoded probe or response.
type Packet struct {
	Kind Kind
	// VMPair identifies the VM-pair the probe belongs to.
	VMPair uint32
	// PathID identifies which of the VM-pair's candidate underlay paths
	// the probe traveled.
	PathID uint16
	// Seq is the probe sequence number, echoed in the response.
	Seq uint32
	// Phi is φ_{a→b}: the sender-assigned bandwidth token in tokens
	// (24-bit millitoken wire resolution). In a response it is the
	// receiver-admitted token (Appendix G).
	Phi float64
	// Window is w^u_{a→b}: the VM-pair's current sending window on this
	// path in bytes.
	Window uint32
	// PeerPhi is the receiver-side admitted token in tokens, filled
	// into the response by the destination edge so the source can take
	// min(sender, receiver) per Guarantee Partitioning.
	PeerPhi float64
	// SentAt is the source timestamp in simulation picoseconds, echoed
	// back for RTT measurement.
	SentAt int64
	// Hops holds one INT record per switch traversed, in path order.
	Hops []Hop
}

const (
	preambleLen = 1 + 4 + 2 + 4 + 3 + 2 + 4 + 8 // kind/nhop .. sentAt
	hopLen      = 8 + 4                         // 64-bit record + link id
	// headerOverhead models the outer Ethernet+IP+SR headers a real
	// probe carries (Fig 22); it contributes to probe size accounting.
	headerOverhead = 14 + 20 + 16
)

// PayloadSize returns the encoded size of a probe carrying n hop records:
// the length Encode produces, and the capacity an edge gives a fresh probe's
// buffer so the path's switches can StampHop it without regrowing it.
func PayloadSize(nHops int) int { return preambleLen + nHops*hopLen }

// WireSize returns the on-wire byte size of a probe carrying n hop
// records, including the modeled outer headers.
func WireSize(nHops int) int { return headerOverhead + PayloadSize(nHops) }

// Size returns the packet's current on-wire size.
func (p *Packet) Size() int { return WireSize(len(p.Hops)) }

// Errors returned by Decode and AppendHop.
var (
	errTruncated = errors.New("probe: buffer truncated")
	errTooLong   = errors.New("probe: more than MaxHops hop records")
	errBadKind   = errors.New("probe: unknown packet kind")
)

func clamp(v uint64, max uint64) uint64 {
	if v > max {
		return max
	}
	return v
}

// quantize divides v by unit, rounding to nearest, clamped to max.
func quantize(v float64, unit float64, max uint64) uint64 {
	if v <= 0 {
		return 0
	}
	return clamp(uint64(v/unit+0.5), max)
}

// Encode appends the packet's wire representation (without the modeled
// outer headers) to dst and returns the extended slice.
func (p *Packet) Encode(dst []byte) ([]byte, error) {
	if len(p.Hops) > maxHops {
		return dst, errTooLong
	}
	switch p.Kind {
	case KindProbe, KindResponse, KindFailure, KindFinish:
	default:
		return dst, errBadKind
	}
	// A Kind's value is its 4-bit wire encoding.
	dst = append(dst, uint8(p.Kind)<<4|uint8(len(p.Hops)))
	dst = binary.BigEndian.AppendUint32(dst, p.VMPair)
	dst = binary.BigEndian.AppendUint16(dst, p.PathID)
	dst = binary.BigEndian.AppendUint32(dst, p.Seq)
	phi := uint32(quantize(p.Phi, phiUnit, 1<<24-1))
	dst = append(dst, byte(phi>>16), byte(phi>>8), byte(phi))
	dst = binary.BigEndian.AppendUint16(dst, uint16(quantize(float64(p.Window), windowUnit, 1<<16-1)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(quantize(p.PeerPhi, phiUnit, 1<<32-1)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.SentAt))
	for _, h := range p.Hops {
		dst = appendHopRecord(dst, h)
	}
	return dst, nil
}

// appendHopRecord appends one hop's 12-byte wire record to dst.
func appendHopRecord(dst []byte, h Hop) []byte {
	rec := uint64(quantize(float64(h.TotalWindow), windowUnit, 1<<16-1)) << 48
	rec |= quantize(h.TotalTokens, totalPhiUnit, 1<<16-1) << 32
	rec |= quantize(h.TxRate, txUnit, 1<<16-1) << 16
	rec |= quantize(float64(h.Queue), queueUnit, 1<<12-1) << 4
	rec |= uint64(encodeSpeedClass(h.Capacity))
	dst = binary.BigEndian.AppendUint64(dst, rec)
	return binary.BigEndian.AppendUint32(dst, uint32(h.LinkID))
}

// wireHops validates the framing of a wire representation — a known kind
// and a buffer that covers the preamble and every hop record the 4-bit nHop
// field declares — and returns the kind and that count.
func wireHops(buf []byte) (kind Kind, nHops int, err error) {
	if len(buf) < preambleLen {
		return 0, 0, errTruncated
	}
	switch kind = Kind(buf[0] >> 4); kind {
	case KindProbe, KindResponse, KindFailure, KindFinish:
	default:
		return 0, 0, errBadKind
	}
	nHops = int(buf[0] & 0xf)
	if len(buf) < PayloadSize(nHops) {
		return 0, 0, errTruncated
	}
	return kind, nHops, nil
}

// DecodeHeader parses the fixed preamble of a wire representation and
// validates it exactly as Decode does, without touching the hop records:
// what a switch reads of a probe. It returns the preamble fields in a Packet
// with nil Hops, and the number of hop records the buffer carries.
func DecodeHeader(buf []byte) (hdr Packet, nHops int, err error) {
	hdr.Kind, nHops, err = wireHops(buf)
	if err != nil {
		return Packet{}, 0, err
	}
	hdr.VMPair = binary.BigEndian.Uint32(buf[1:])
	hdr.PathID = binary.BigEndian.Uint16(buf[5:])
	hdr.Seq = binary.BigEndian.Uint32(buf[7:])
	hdr.Phi = float64(uint32(buf[11])<<16|uint32(buf[12])<<8|uint32(buf[13])) * phiUnit
	hdr.Window = uint32(binary.BigEndian.Uint16(buf[14:])) * windowUnit
	hdr.PeerPhi = float64(binary.BigEndian.Uint32(buf[16:])) * phiUnit
	hdr.SentAt = int64(binary.BigEndian.Uint64(buf[20:]))
	return hdr, nHops, nil
}

// Decode parses a wire representation produced by Encode. It returns the
// number of bytes consumed. It allocates the Packet and its hop records;
// DecodeInto is the receive path's variant that allocates neither.
func Decode(buf []byte) (*Packet, int, error) {
	p := new(Packet)
	n, err := DecodeInto(p, buf)
	if err != nil {
		return nil, 0, err
	}
	return p, n, nil
}

// DecodeInto is Decode into a Packet the caller owns: every field of dst is
// overwritten, and the hop records go into dst.Hops' backing array when it
// has room for them, so a receiver decoding into the same scratch Packet
// allocates nothing once the scratch has seen its longest path. On error dst
// is left as it was.
func DecodeInto(dst *Packet, buf []byte) (int, error) {
	hdr, nHops, err := DecodeHeader(buf)
	if err != nil {
		return 0, err
	}
	hops := dst.Hops[:0]
	if hops == nil || cap(hops) < nHops {
		hops = make([]Hop, 0, nHops)
	}
	n := preambleLen
	for i := 0; i < nHops; i++ {
		rec := binary.BigEndian.Uint64(buf[n:])
		hops = append(hops, Hop{
			TotalWindow: uint32(rec>>48) * windowUnit,
			TotalTokens: float64(rec>>32&0xffff) * totalPhiUnit,
			TxRate:      float64(rec>>16&0xffff) * txUnit,
			Queue:       uint32(rec>>4&0xfff) * queueUnit,
			Capacity:    decodeSpeedClass(uint8(rec & 0xf)),
			LinkID:      int32(binary.BigEndian.Uint32(buf[n+8:])),
		})
		n += hopLen
	}
	*dst = hdr
	dst.Hops = hops
	return n, nil
}

// FlipToResponse turns an encoded probe or finish probe into its response in
// place, the way the destination edge's hardware does (§3.2 steps 4–5): the
// kind nibble becomes KindResponse, the receiver-admitted token goes into the
// peer-φ field, and the hop records the switches stamped stay where they are.
// The result is byte for byte what Decode, ToResponse(peerPhi) and Encode
// produce — bytes beyond the declared hop records are cut off and a speed
// class no port has reads back as class 0, as that round trip would leave
// them — without the two Packets and the second buffer. It fails, leaving buf
// as is, exactly where Decode fails.
func FlipToResponse(buf []byte, peerPhi float64) ([]byte, error) {
	_, nHops, err := wireHops(buf)
	if err != nil {
		return buf, err
	}
	buf = buf[:PayloadSize(nHops)]
	buf[0] = uint8(KindResponse)<<4 | uint8(nHops)
	binary.BigEndian.PutUint32(buf[16:], uint32(quantize(peerPhi, phiUnit, 1<<32-1)))
	for n := preambleLen; n < len(buf); n += hopLen {
		if class := &buf[n+7]; int(*class&0xf) >= len(speedClasses) {
			*class &= 0xf0
		}
	}
	return buf, nil
}

// StampHop appends h to an encoded probe in place, the way a switch's INT
// stage does: it bumps the 4-bit nHop field and writes the 12-byte record
// after the last one the buffer declares (bytes beyond that are dropped, as
// a Decode/Encode round trip would). The result decodes to the same Packet
// as decoding buf, AppendHop(h) and re-encoding, without the intermediate
// Packet; it reuses buf's spare capacity. It fails once maxHops is reached,
// leaving buf as is.
func StampHop(buf []byte, h Hop) ([]byte, error) {
	_, nHops, err := wireHops(buf)
	if err != nil {
		return buf, err
	}
	if nHops >= maxHops {
		return buf, errTooLong
	}
	buf[0]++ // nHop is the low nibble, and nHops+1 <= maxHops fits it
	return appendHopRecord(buf[:PayloadSize(nHops)], h), nil
}

// AppendHop adds a switch's INT record; it fails once maxHops is reached,
// mirroring the fixed-width nHop field.
func (p *Packet) AppendHop(h Hop) error {
	if len(p.Hops) >= maxHops {
		return errTooLong
	}
	p.Hops = append(p.Hops, h)
	return nil
}

// ToResponse converts a probe arriving at the destination edge into the
// response the destination sends back: same telemetry, kind flipped, and
// the receiver-admitted token attached.
func (p *Packet) ToResponse(peerPhi float64) *Packet {
	r := *p
	r.Kind = KindResponse
	r.PeerPhi = peerPhi
	r.Hops = make([]Hop, len(p.Hops))
	copy(r.Hops, p.Hops)
	return &r
}

// BottleneckIndex returns the index of the hop that minimizes the
// proportional share φ/Φ_l·C_l, i.e. the link that bounds r_{a→b} in
// Eqn (1). It returns -1 for an empty hop list.
func (p *Packet) BottleneckIndex() int {
	best, bestShare := -1, 0.0
	for i, h := range p.Hops {
		phiTotal := h.TotalTokens
		if phiTotal == 0 {
			phiTotal = totalPhiUnit
		}
		share := p.Phi / phiTotal * h.Capacity
		if best == -1 || share < bestShare {
			best, bestShare = i, share
		}
	}
	return best
}
