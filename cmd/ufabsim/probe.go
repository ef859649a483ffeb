package main

// `ufabsim probe` inspects μFAB's probe/response wire format (Appendix G):
// it decodes hex dumps into readable telemetry and encodes synthetic probes
// for testing.
//
//	ufabsim probe decode 18000000010000...      # hex → fields
//	ufabsim probe encode -phi 12.5 -window 65536 -hops 3
//	echo <hex> | ufabsim probe decode -

import (
	"bufio"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"ufab/internal/probe"
)

func probeCmd(args []string) {
	if len(args) < 1 {
		probeUsage()
		os.Exit(2)
	}
	switch args[0] {
	case "decode":
		probeDecode(args[1:])
	case "encode":
		probeEncode(args[1:])
	default:
		probeUsage()
		os.Exit(2)
	}
}

func probeUsage() {
	fmt.Fprintln(os.Stderr, `usage:
  ufabsim probe decode <hex>|-        decode a probe from hex (or stdin with -)
  ufabsim probe encode [flags]        build a probe and print its hex

encode flags:`)
	fs := flag.NewFlagSet("encode", flag.ContinueOnError)
	encodeFlags(fs)
	fs.PrintDefaults()
}

func probeDecode(args []string) {
	if len(args) != 1 {
		probeUsage()
		os.Exit(2)
	}
	in := args[0]
	if in == "-" {
		sc := bufio.NewScanner(os.Stdin)
		var b strings.Builder
		for sc.Scan() {
			b.WriteString(strings.TrimSpace(sc.Text()))
		}
		in = b.String()
	}
	buf, err := hex.DecodeString(strings.TrimSpace(in))
	if err != nil {
		fatalf("bad hex: %v", err)
	}
	p, n, err := probe.Decode(buf)
	if err != nil {
		fatalf("decode: %v", err)
	}
	fmt.Printf("kind       %s\n", p.Kind)
	fmt.Printf("vm-pair    %d\n", p.VMPair)
	fmt.Printf("path       %d\n", p.PathID)
	fmt.Printf("seq        %d\n", p.Seq)
	fmt.Printf("phi        %.3f tokens\n", p.Phi)
	fmt.Printf("window     %d bytes\n", p.Window)
	fmt.Printf("peer-phi   %.3f tokens\n", p.PeerPhi)
	fmt.Printf("sent-at    %d ps\n", p.SentAt)
	fmt.Printf("hops       %d (consumed %d of %d bytes; wire size %d with outer headers)\n",
		len(p.Hops), n, len(buf), p.Size())
	for i, h := range p.Hops {
		fmt.Printf("  hop %d: link=%d W=%dB Phi=%.1f tx=%.2fGbps q=%dB C=%.0fGbps\n",
			i, h.LinkID, h.TotalWindow, h.TotalTokens, h.TxRate/1e9, h.Queue, h.Capacity/1e9)
	}
}

type encodeOpts struct {
	kind    string
	vm      uint
	path    uint
	seq     uint
	phi     float64
	window  uint
	peerPhi float64
	hops    int
	tx      float64
	queue   uint
	cap_    float64
}

func encodeFlags(fs *flag.FlagSet) *encodeOpts {
	var o encodeOpts
	fs.StringVar(&o.kind, "kind", "probe", "probe|response|finish|failure")
	fs.UintVar(&o.vm, "vm", 1, "VM-pair id")
	fs.UintVar(&o.path, "path", 0, "path id")
	fs.UintVar(&o.seq, "seq", 1, "sequence number")
	fs.Float64Var(&o.phi, "phi", 10, "bandwidth token (tokens)")
	fs.UintVar(&o.window, "window", 65536, "sending window (bytes)")
	fs.Float64Var(&o.peerPhi, "peer-phi", 0, "receiver-admitted token")
	fs.IntVar(&o.hops, "hops", 0, "synthetic INT hop records to attach")
	fs.Float64Var(&o.tx, "tx", 9.4e9, "per-hop TX rate (bits/s)")
	fs.UintVar(&o.queue, "queue", 0, "per-hop queue (bytes)")
	fs.Float64Var(&o.cap_, "cap", 10e9, "per-hop capacity (bits/s)")
	return &o
}

func probeEncode(args []string) {
	fs := flag.NewFlagSet("encode", flag.ExitOnError)
	o := encodeFlags(fs)
	fs.Parse(args)
	kinds := map[string]probe.Kind{
		"probe": probe.KindProbe, "response": probe.KindResponse,
		"finish": probe.KindFinish, "failure": probe.KindFailure,
	}
	k, ok := kinds[o.kind]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown kind %q\n", o.kind)
		os.Exit(2)
	}
	// A value its wire field cannot hold is refused, not wrapped.
	for _, f := range []struct {
		name   string
		v, max uint
	}{{"vm", o.vm, math.MaxUint32}, {"path", o.path, math.MaxUint16}, {"seq", o.seq, math.MaxUint32},
		{"window", o.window, math.MaxUint32}, {"queue", o.queue, math.MaxUint32}} {
		if f.v > f.max {
			fatalf("-%s %d exceeds the field's maximum %d", f.name, f.v, f.max)
		}
	}
	if o.hops < 0 {
		fatalf("-hops %d is negative", o.hops)
	}
	p := &probe.Packet{
		Kind: k, VMPair: uint32(o.vm), PathID: uint16(o.path), Seq: uint32(o.seq),
		Phi: o.phi, Window: uint32(o.window), PeerPhi: o.peerPhi,
	}
	for i := 0; i < o.hops; i++ {
		if err := p.AppendHop(probe.Hop{
			TotalWindow: uint32(o.window) * 4,
			TotalTokens: o.phi * 4,
			TxRate:      o.tx,
			Queue:       uint32(o.queue),
			Capacity:    o.cap_,
			LinkID:      int32(i),
		}); err != nil {
			fatalf("hop %d: %v", i, err)
		}
	}
	buf, err := p.Encode(nil)
	if err != nil {
		fatalf("encode: %v", err)
	}
	fmt.Println(hex.EncodeToString(buf))
}
