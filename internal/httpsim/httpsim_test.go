package httpsim

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"churntomo/internal/anomaly"
	"churntomo/internal/netaddr"
	"churntomo/internal/netsim"
)

var (
	client = netaddr.MustParseIP("20.0.0.5")
	server = netaddr.MustParseIP("21.0.0.9")
)

func params(body []byte) Params {
	return Params{
		At:         time.Date(2016, 5, 1, 12, 0, 0, 0, time.UTC),
		ClientIP:   client,
		ServerIP:   server,
		Host:       "h.example.com",
		ServerDist: 10,
		ServerTTL:  netsim.InitTTLLinux,
		Body:       body,
	}
}

func body(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + i%26)
	}
	return b
}

func TestSimulateCleanConnection(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	res := Simulate(params(body(3000)), nil, Noise{}, rng)
	if !bytes.Equal(res.Body, body(3000)) {
		t.Fatal("clean body corrupted")
	}
	if res.BaselineLen != 3000 {
		t.Errorf("baseline %d", res.BaselineLen)
	}
	// Handshake present and ordered.
	pk := res.Capture.Packets
	if pk[0].Flags != netsim.FlagSYN {
		t.Errorf("first packet %v", pk[0].Flags)
	}
	if pk[1].Flags != netsim.FlagSYN|netsim.FlagACK || pk[1].Src != server {
		t.Errorf("second packet %v from %v", pk[1].Flags, pk[1].Src)
	}
	// Segmentation: 3000 bytes at MSS 1200 = 3 data segments.
	data := 0
	for _, p := range pk {
		if p.Src == server && len(p.Payload) > 0 {
			data++
		}
	}
	if data != 3 {
		t.Errorf("data segments %d, want 3", data)
	}
}

func TestSimulateSegmentSequenceNumbers(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	res := Simulate(params(body(2500)), nil, Noise{}, rng)
	var isn uint32
	var segs []netsim.Packet
	for _, p := range res.Capture.Packets {
		if p.Src != server {
			continue
		}
		if p.Flags&netsim.FlagSYN != 0 {
			isn = p.Seq
			continue
		}
		if len(p.Payload) > 0 {
			segs = append(segs, p)
		}
	}
	next := isn + 1
	for i, s := range segs {
		if s.Seq != next {
			t.Fatalf("segment %d seq %d, want %d", i, s.Seq, next)
		}
		next += uint32(len(s.Payload))
	}
}

func TestSimulateBlockpageInPathSuppressesServer(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	page := []byte("<html>blocked</html>")
	inj := []Injector{{ASN: 1, Dist: 4, Technique: anomaly.Block, InitTTL: 64, InPath: true, Blockpage: page}}
	res := Simulate(params(body(4000)), inj, Noise{}, rng)
	if !bytes.Equal(res.Body, page) {
		t.Fatalf("body = %q, want blockpage", res.Body)
	}
	for _, p := range res.Capture.Packets {
		if p.Src == server && len(p.Payload) > 0 && !p.Injected {
			t.Fatal("in-path block should suppress the real response")
		}
	}
}

func TestSimulateInjectionRacesAhead(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	inj := []Injector{{ASN: 1, Dist: 3, Technique: anomaly.Block, InitTTL: 255, Blockpage: []byte("X-BLOCKED-X")}}
	res := Simulate(params(body(2000)), inj, Noise{}, rng)
	// First data byte delivered must come from the injection.
	if res.Body[0] != 'X' {
		t.Errorf("injection lost the race: body starts %q", res.Body[:8])
	}
}

func TestReassembleFirstArrivalWins(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	inj := []Injector{{ASN: 1, Dist: 3, Technique: anomaly.SEQ, InitTTL: 64, MimicTTL: true}}
	res := Simulate(params(body(2000)), inj, Noise{}, rng)
	// The injected chunk overwrote part of the stream (or extended it);
	// the result must differ from the clean body somewhere if the offset
	// landed inside, and the prefix before the offset must be intact.
	if len(res.Body) < 2000 {
		t.Fatalf("body truncated to %d", len(res.Body))
	}
}

func TestResizeBody(t *testing.T) {
	b := []byte("abcdef")
	if got := resizeBody(b, 3); string(got) != "abc" {
		t.Errorf("shrink: %q", got)
	}
	if got := resizeBody(b, 14); string(got) != "abcdefabcdefab" {
		t.Errorf("grow: %q", got)
	}
	if got := resizeBody(b, 0); len(got) == 0 {
		t.Error("zero-size resize should return placeholder")
	}
	if got := resizeBody(nil, 10); len(got) != 0 {
		// No content to repeat: returns empty rather than looping forever.
		t.Errorf("nil body resize: %q", got)
	}
}

func TestOrganicRSTHasValidSequence(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	n := Noise{OrganicRSTProb: 1} // always RST teardown
	res := Simulate(params(body(1000)), nil, n, rng)
	var isn uint32
	var rst *netsim.Packet
	total := 0
	for i, p := range res.Capture.Packets {
		if p.Src != server {
			continue
		}
		if p.Flags&netsim.FlagSYN != 0 {
			isn = p.Seq
		}
		if len(p.Payload) > 0 {
			total += len(p.Payload)
		}
		if p.Flags&netsim.FlagRST != 0 {
			rst = &res.Capture.Packets[i]
		}
	}
	if rst == nil {
		t.Fatal("no organic RST emitted at prob 1")
	}
	if rst.Seq != isn+1+uint32(total) {
		t.Errorf("organic RST seq %d, want stream end %d", rst.Seq, isn+1+uint32(total))
	}
	if rst.Injected {
		t.Error("organic RST marked injected")
	}
}

// reassembleRef is the per-byte reassembler reassemble replaced, kept as
// its reference: it grows the stream per segment and delivers each byte
// not yet delivered.
func reassembleRef(c *netsim.Capture, client, server netaddr.IP, isn uint32) []byte {
	base := isn + 1
	var buf []byte
	var have []bool
	for _, p := range c.Packets {
		if p.Src != server || p.Dst != client || p.Proto != netsim.ProtoTCP || len(p.Payload) == 0 {
			continue
		}
		if p.Flags&netsim.FlagSYN != 0 {
			continue
		}
		rel := p.Seq - base
		if rel > 1<<20 {
			continue
		}
		need := int(rel) + len(p.Payload)
		if len(buf) < need {
			buf = append(buf, make([]byte, need-len(buf))...)
			have = append(have, make([]bool, need-len(have))...)
		}
		for i, b := range p.Payload {
			if off := int(rel) + i; !have[off] {
				buf[off] = b
				have[off] = true
			}
		}
	}
	end := len(buf)
	for end > 0 && !have[end-1] {
		end--
	}
	return buf[:end]
}

// segmentsCapture decodes fuzz bytes into a server-to-client capture, five
// bytes per packet: a kind byte (wrong direction, SYN, UDP, wild sequence
// number past the window or before the ISN, or plain data), a 13-bit
// stream offset, a payload length and a fill byte.
func segmentsCapture(isn uint32, data []byte) *netsim.Capture {
	c := &netsim.Capture{}
	for ; len(data) >= 5; data = data[5:] {
		kind, off, n, fill := data[0], uint32(data[1])<<8|uint32(data[2]), int(data[3]), data[4]
		p := netsim.Packet{
			Src: server, Dst: client, Proto: netsim.ProtoTCP,
			Seq: isn + 1 + off%8192, Flags: netsim.FlagACK,
		}
		switch kind % 8 {
		case 0:
			p.Src, p.Dst = client, server
		case 1:
			p.Flags |= netsim.FlagSYN
		case 2:
			p.Proto = netsim.ProtoUDP
		case 3:
			p.Seq = isn + 1 + 1<<20 + off
		case 4:
			p.Seq = isn - off
		}
		for i := 0; i < n; i++ {
			p.Payload = append(p.Payload, fill+byte(i))
		}
		c.Packets = append(c.Packets, p)
	}
	return c
}

// FuzzReassemble checks reassemble against the per-byte reference on
// overlapping, out-of-order, gapped and wild-sequence segments.
func FuzzReassemble(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(1000), []byte{7, 0, 0, 100, 'a'})
	// Out of order with a gap, then a segment spanning both.
	f.Add(uint32(5), []byte{7, 0, 50, 20, 'a', 7, 0, 0, 10, 'b', 7, 0, 5, 80, 'c'})
	// Exact duplicate, adjacent ranges, and a segment inside a covered one.
	f.Add(uint32(9), []byte{7, 0, 0, 10, 'a', 7, 0, 0, 10, 'b', 7, 0, 10, 10, 'c', 7, 0, 3, 4, 'd'})
	// Wrong direction, SYN, UDP and wild sequence numbers are all skipped.
	f.Add(uint32(1<<32-3), []byte{0, 0, 0, 9, 'w', 1, 0, 0, 9, 's', 2, 0, 0, 9, 'u', 3, 0, 1, 9, 'x', 4, 0, 1, 9, 'y', 7, 0, 2, 3, 'k'})
	// Zero-length payloads and many small segments bridging gaps.
	f.Add(uint32(77), []byte{7, 0, 40, 0, 'z', 7, 0, 30, 5, 'a', 7, 0, 10, 5, 'b', 7, 0, 20, 5, 'c', 7, 0, 0, 5, 'd', 7, 0, 4, 40, 'e'})
	f.Fuzz(func(t *testing.T, isn uint32, data []byte) {
		c := segmentsCapture(isn, data)
		got, want := reassemble(c, client, server, isn), reassembleRef(c, client, server, isn)
		if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("reassemble = %q, reference %q", got, want)
		}
	})
}

// TestReassembleMatchesReferenceOnSimulations compares reassemble with the
// reference on captures Simulate produces under every injection technique.
func TestReassembleMatchesReferenceOnSimulations(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	techniques := []anomaly.Kind{anomaly.RST, anomaly.Block, anomaly.SEQ, anomaly.TTL}
	for i := 0; i < 400; i++ {
		var injs []Injector
		for j := rng.IntN(4); j > 0; j-- {
			injs = append(injs, Injector{
				ASN: uint32(j), Dist: 1 + rng.IntN(9), Technique: techniques[rng.IntN(len(techniques))],
				InitTTL: 64, SeqSkew: rng.IntN(2) == 0, InPath: rng.IntN(3) == 0,
				MimicTTL: rng.IntN(2) == 0, KillsConn: rng.IntN(2) == 0, Blockpage: body(100 + rng.IntN(900)),
			})
		}
		res := Simulate(params(body(200+rng.IntN(6000))), injs, DefaultNoise(), rng)
		var isn uint32 // the SYN-ACK carries the server's ISN
		for _, pk := range res.Capture.Packets {
			if pk.Flags == netsim.FlagSYN|netsim.FlagACK {
				isn = pk.Seq
			}
		}
		if want := reassembleRef(&res.Capture, client, server, isn); !bytes.Equal(res.Body, want) {
			t.Fatalf("simulation %d: body of %d bytes, reference %d", i, len(res.Body), len(want))
		}
	}
}

func BenchmarkHTTPSimulate(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 9))
	p := params(body(3500))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Simulate(p, nil, DefaultNoise(), rng)
	}
}
