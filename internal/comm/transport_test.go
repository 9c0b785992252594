package comm

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// TestPayloadCodecRoundTrip: every payload type a collective sends must
// survive the wire codec deeply equal, sharing no storage with the input,
// and payloadSize must predict its encoded length exactly.
func TestPayloadCodecRoundTrip(t *testing.T) {
	sv := stream.NewSparse(100, []int32{3, 17, 99}, []float64{1.5, -2.25, 0.125}, stream.OpSum)
	dv := stream.NewDense(make([]float64, 40), stream.OpMax)
	empty := stream.NewSparse(100, nil, nil, stream.OpSum)
	qc := quant.Config{Bits: 4, Bucket: 16, Norm: quant.NormMax}
	qv := quant.Encode([]float64{1, -2, 3, -4, 5, 6, 7, 8}, qc, rand.New(rand.NewSource(1)))

	cases := []any{
		nil,
		[]float64{1, 2, 3.5},
		[]float64{},
		[][]float64{{1, 2}, nil, {3}},
		map[int][]float64{4: {1}, 1: {2, 3}, 9: {}},
		sv,
		dv,
		(*stream.Vector)(nil),
		qv,
		(*quant.Quantized)(nil),
		[]*quant.Quantized{qv, nil, qv},
		map[int]*quant.Quantized{2: qv, 0: qv},
		7,
		-3.75,
		"hello",
		[]byte{1, 2, 3},
		[]*stream.Vector{},
		[]*stream.Vector{empty},
		[]*stream.Vector{sv, dv, empty},
	}
	for i, in := range cases {
		enc, err := appendPayload(nil, in)
		if err != nil {
			t.Fatalf("case %d (%T): %v", i, in, err)
		}
		if got := payloadSize(in); got != len(enc) {
			t.Fatalf("case %d (%T): payloadSize %d, encoding is %d bytes", i, in, got, len(enc))
		}
		out, err := copyPayload(in)
		if err != nil {
			t.Fatalf("case %d (%T): %v", i, in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("case %d (%T): round trip %#v != %#v", i, in, out, in)
		}
	}

	// The copy must not share storage: mutating it leaves the original.
	xs := []float64{1, 2, 3}
	cp, _ := copyPayload(xs)
	cp.([]float64)[0] = 99
	if xs[0] != 1 {
		t.Fatalf("copy aliases the original slice")
	}
}

// TestPayloadCodecRejectsGarbage: truncation and trailing bytes error
// rather than decode wrong data.
func TestPayloadCodecRejectsGarbage(t *testing.T) {
	good, err := appendPayload(nil, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePayload(good[:len(good)-3]); err == nil {
		t.Fatalf("truncated frame decoded")
	}
	if _, err := decodePayload(append(good, 0)); err == nil {
		t.Fatalf("trailing garbage decoded")
	}
	if _, err := decodePayload([]byte{250}); err == nil {
		t.Fatalf("unknown type id decoded")
	}
	if _, err := appendPayload(nil, struct{ X int }{1}); err == nil {
		t.Fatalf("unregistered type encoded")
	}
	if _, err := appendPayload(nil, []*stream.Vector{nil}); err == nil {
		t.Fatalf("nil vector list entry encoded")
	}
	// A container count larger than the remaining bytes could hold is
	// rejected before it sizes an allocation.
	for _, id := range []byte{wireFloatss, wireFloatMap, wireQuantSlice, wireQuantMap, wireVectors} {
		frame := append([]byte{id, 0, 0, 0, 0x95}, make([]byte, 16)...)
		if _, err := decodePayload(frame); err == nil {
			t.Fatalf("type %d: a count of 0x95000000 in a 21-byte frame decoded", id)
		}
	}
}

// FuzzDecodePayload: no byte string may crash the decoder (bytes arrive
// from other processes on the TCP backend), and whatever it accepts must
// re-encode to exactly payloadSize bytes. testdata/fuzz holds the 21-byte
// frame whose wireFloatss count once sized a fatal allocation.
func FuzzDecodePayload(f *testing.F) {
	sv := stream.NewSparse(50, []int32{1, 7}, []float64{2, -3}, stream.OpSum)
	qv := quant.Encode([]float64{1, -2, 3, -4}, quant.Config{Bits: 2, Bucket: 4, Norm: quant.NormMax},
		rand.New(rand.NewSource(1)))
	for _, v := range []any{nil, []float64{1}, [][]float64{{1}, nil}, map[int][]float64{3: {1}},
		sv, []*stream.Vector{sv, stream.NewDense([]float64{1, 2}, stream.OpSum)},
		qv, []*quant.Quantized{qv, nil}, map[int]*quant.Quantized{1: qv}, 5, 2.5, "s", []byte{9}} {
		enc, err := appendPayload(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodePayload(data)
		if err != nil {
			return
		}
		enc, err := appendPayload(nil, v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		if len(enc) != payloadSize(v) {
			t.Fatalf("decoded %T: payloadSize %d, encoding is %d bytes", v, payloadSize(v), len(enc))
		}
	})
}

// exchangeRing is the test program both real backends run: every rank
// sends a tagged vector to its successor and returns the one it received
// from its predecessor.
func exchangeRing(p *Proc) *stream.Vector {
	n, rank := p.Size(), p.Rank()
	v := stream.NewSparse(64, []int32{int32(rank)}, []float64{float64(rank + 1)}, stream.OpSum)
	p.Send((rank+1)%n, 7, v, v.WireBytes())
	return p.Recv((rank-1+n)%n, 7).Payload.(*stream.Vector)
}

// TestGoroutineTransportExchange: the goroutine backend delivers correct
// values, deep-copied (no storage shared with the sender), and reports
// measured wall times.
func TestGoroutineTransportExchange(t *testing.T) {
	const P = 8
	w := NewWorld(P, simnet.Aries).UseGoroutineTransport()
	if w.Transport() != "goroutine" || !w.WallClock() {
		t.Fatalf("transport=%q wall=%v", w.Transport(), w.WallClock())
	}
	sent := make([]*stream.Vector, P)
	got := Run(w, func(p *Proc) *stream.Vector {
		n, rank := p.Size(), p.Rank()
		v := stream.NewSparse(64, []int32{int32(rank)}, []float64{float64(rank + 1)}, stream.OpSum)
		sent[rank] = v
		p.Send((rank+1)%n, 7, v, v.WireBytes())
		return p.Recv((rank-1+n)%n, 7).Payload.(*stream.Vector)
	})
	for r, v := range got {
		prev := (r - 1 + P) % P
		idx, val := v.Pairs()
		if len(idx) != 1 || idx[0] != int32(prev) || val[0] != float64(prev+1) {
			t.Fatalf("rank %d received %v/%v", r, idx, val)
		}
		if v == sent[prev] {
			t.Fatalf("rank %d received the sender's own object (no deep copy)", r)
		}
	}
	times := w.Times()
	for r, d := range times {
		if d <= 0 {
			t.Fatalf("rank %d wall time %g, want > 0", r, d)
		}
	}
	if w.MaxTime() <= 0 {
		t.Fatalf("MaxTime %g, want > 0", w.MaxTime())
	}
}

// TestGoroutineTransportTrace: traced events on the real backend carry
// measured timestamps (arrival ≥ send ≥ 0) and factor-1 contention, and
// concurrent EventsOf reads during the run are safe (the -race CI pass
// drives this).
func TestGoroutineTransportTrace(t *testing.T) {
	const P = 8
	w := NewWorld(P, simnet.Aries).UseGoroutineTransport()
	tr := w.EnableTrace()
	Run(w, func(p *Proc) int {
		n, rank := p.Size(), p.Rank()
		for round := 0; round < 50; round++ {
			p.Send((rank+1)%n, round, []float64{float64(round)}, 8)
			p.Recv((rank-1+n)%n, round)
			if own := tr.EventsOf(rank); len(own) != round+1 {
				panic(fmt.Sprintf("rank %d round %d: %d own events", rank, round, len(own)))
			}
		}
		return 0
	})
	events := tr.Events()
	if len(events) != P*50 {
		t.Fatalf("%d events, want %d", len(events), P*50)
	}
	for _, e := range events {
		if e.SendTime < 0 || e.Arrival < e.SendTime {
			t.Fatalf("event %+v: non-causal timestamps", e)
		}
		if e.NICFactor != 1 {
			t.Fatalf("event %+v: modeled contention on a real transport", e)
		}
	}
}

// TestTracerConcurrentAppendsAndReads hammers one tracer from many
// goroutines appending as different source ranks while readers scan — the
// sharded design must hold up under -race.
func TestTracerConcurrentAppendsAndReads(t *testing.T) {
	w := NewWorld(16, simnet.Aries)
	tr := w.EnableTrace()
	var wg sync.WaitGroup
	for src := 0; src < 16; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.record(TraceEvent{Src: src, Dst: (src + 1) % 16, Bytes: i})
				if got := tr.EventsOf(src); len(got) != i+1 {
					panic("own prefix not stable")
				}
			}
		}(src)
	}
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for i := 0; i < 50; i++ {
			tr.Events()
			tr.TotalBytes()
		}
	}()
	wg.Wait()
	rg.Wait()
	if got := len(tr.Events()); got != 16*200 {
		t.Fatalf("%d events, want %d", got, 16*200)
	}
}

// TestTCPLoopbackExchange: the TCP backend in its single-process loopback
// form delivers correct values over real sockets and reports wall times.
func TestTCPLoopbackExchange(t *testing.T) {
	const P = 4
	w, err := NewWorldTCP(P, simnet.Aries, TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Transport() != "tcp" || !w.WallClock() {
		t.Fatalf("transport=%q wall=%v", w.Transport(), w.WallClock())
	}
	got := Run(w, exchangeRing)
	for r, v := range got {
		prev := (r - 1 + P) % P
		idx, val := v.Pairs()
		if len(idx) != 1 || idx[0] != int32(prev) || val[0] != float64(prev+1) {
			t.Fatalf("rank %d received %v/%v", r, idx, val)
		}
	}
	// A second Run on the same world must work (connections are reused).
	Run(w, exchangeRing)
	if w.MaxTime() <= 0 {
		t.Fatalf("MaxTime %g, want > 0", w.MaxTime())
	}
}

// TestTCPMultiProcessWorlds splits one 6-rank world across two World
// instances in this process — exactly the multi-process protocol, minus
// fork/exec — and runs a collective exchange across the socket boundary.
func TestTCPMultiProcessWorlds(t *testing.T) {
	// Reserve a rendezvous port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rend := ln.Addr().String()
	ln.Close()

	const P = 6
	type worldOrErr struct {
		w   *World
		err error
	}
	mk := func(ranks []int, out chan<- worldOrErr) {
		w, err := NewWorldTCP(P, simnet.Aries, TCPConfig{Rendezvous: rend, LocalRanks: ranks})
		out <- worldOrErr{w, err}
	}
	chA, chB := make(chan worldOrErr, 1), make(chan worldOrErr, 1)
	go mk([]int{0, 1, 2}, chA)
	go mk([]int{3, 4, 5}, chB)
	ra, rb := <-chA, <-chB
	if ra.err != nil || rb.err != nil {
		t.Fatalf("world construction: %v / %v", ra.err, rb.err)
	}
	defer ra.w.Close()
	defer rb.w.Close()
	if got := ra.w.LocalRanks(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("world A local ranks %v", got)
	}

	var wg sync.WaitGroup
	results := make([][]*stream.Vector, 2)
	for i, w := range []*World{ra.w, rb.w} {
		wg.Add(1)
		go func(i int, w *World) {
			defer wg.Done()
			results[i] = Run(w, exchangeRing)
		}(i, w)
	}
	wg.Wait()
	for half, res := range results {
		for _, r := range [][]int{{0, 1, 2}, {3, 4, 5}}[half] {
			v := res[r]
			prev := (r - 1 + P) % P
			idx, val := v.Pairs()
			if len(idx) != 1 || idx[0] != int32(prev) || val[0] != float64(prev+1) {
				t.Fatalf("half %d rank %d received %v/%v", half, r, idx, val)
			}
		}
		// Non-local ranks' times stay zero; local ones are measured.
		times := [2]*World{ra.w, rb.w}[half].Times()
		for r, d := range times {
			local := (half == 0) == (r <= 2)
			if local && d <= 0 {
				t.Fatalf("half %d rank %d: wall time %g", half, r, d)
			}
			if !local && d != 0 {
				t.Fatalf("half %d rank %d: non-local time %g, want 0", half, r, d)
			}
		}
	}
}

// TestTCPConfigValidation: malformed configurations fail fast.
func TestTCPConfigValidation(t *testing.T) {
	if _, err := NewWorldTCP(4, simnet.Aries, TCPConfig{LocalRanks: []int{0, 2}}); err == nil {
		t.Fatalf("partial world without rendezvous accepted")
	}
	if _, err := NewWorldTCP(4, simnet.Aries, TCPConfig{Rendezvous: "127.0.0.1:0", LocalRanks: []int{2, 1}}); err == nil {
		t.Fatalf("unsorted LocalRanks accepted")
	}
	if _, err := NewWorldTCP(4, simnet.Aries, TCPConfig{Rendezvous: "127.0.0.1:0", LocalRanks: []int{0, 7}}); err == nil {
		t.Fatalf("out-of-range rank accepted")
	}
	if _, err := NewWorldTCP(4, simnet.Aries, TCPConfig{Hierarchy: &simnet.Hierarchy{}}); err == nil {
		t.Fatalf("invalid hierarchy accepted")
	}
	if _, err := NewWorldTCP(0, simnet.Aries, TCPConfig{}); err == nil {
		t.Fatalf("empty world accepted")
	}
}
