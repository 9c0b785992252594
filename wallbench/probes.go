package main

import (
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/stream"
)

// The per-layer probes time one module's public function at a time, from
// the benchmark's side, on the shapes the workload's ops run on. They
// report each layer's cost in isolation (one goroutine, nothing else
// running), not its share of an op: attributing an op's time to layers
// needs spans inside the program.

// probeBudget is how long a probe keeps repeating its measurement;
// probeMinReps and probeMaxReps bound the repetitions.
const (
	probeBudget  = 200 * time.Millisecond
	probeMinReps = 5
	probeMaxReps = 2000
)

// more reports whether a probe that began at begin and has made reps
// measurements should make another.
func more(reps int, begin time.Time) bool {
	return reps < probeMinReps || (reps < probeMaxReps && time.Since(begin) < probeBudget)
}

// repeat times f until the budget is spent and returns the per-call
// seconds, recording one span per call on track.
func repeat(track *obs.Track, name string, f func()) []float64 {
	var secs []float64
	for begin := time.Now(); more(len(secs), begin); {
		s := time.Now()
		f()
		e := time.Now()
		track.Event(name, since(s), since(e))
		secs = append(secs, e.Sub(s).Seconds())
	}
	return secs
}

// allocated returns the heap bytes and objects one call of f allocates,
// averaged over reps calls.
func allocated(reps int, f func()) (bytes, objs float64) {
	a0, o0, _ := memNow()
	for i := 0; i < reps; i++ {
		f()
	}
	a1, o1, _ := memNow()
	return float64(a1-a0) / float64(reps), float64(o1-o0) / float64(reps)
}

// probeStream measures the stream layer on one call's inputs, split the
// way the split-allgather collectives split them: rank q's slice of
// partition r is one split-phase message, partition r's P slices are one
// MergeK, and rank 0's recursive-doubling allgather is a chain of Concat
// calls. sparseGather adds the allgather's sparse payloads to the wire
// messages (SSAR; DSAR gathers dense blocks through the comm codec
// instead). scratch passes a reused stream.Scratch to MergeK, as the
// workload does.
func probeStream(res *result, track *obs.Track, in []*stream.Vector, sparseGather, scratch bool) {
	P, n := len(in), in[0].Dim()
	pieces := make([][]*stream.Vector, P)
	merged := make([]*stream.Vector, P)
	var msgs []*stream.Vector
	for r := range pieces {
		lo, hi := stream.ChunkRange(n, P, r)
		for q := range in {
			pieces[r] = append(pieces[r], in[q].ExtractRange(lo, hi))
			if q != r {
				msgs = append(msgs, pieces[r][q])
			}
		}
		merged[r] = stream.MergeK(pieces[r], nil)
	}
	// blocks[s] is what rank 0 receives at allgather stage s: the
	// partitions [2^s, 2^(s+1)) its peer has gathered so far.
	var blocks []*stream.Vector
	for dist := 1; dist < P; dist *= 2 {
		b := merged[dist].Clone()
		for r := dist + 1; r < min(2*dist, P); r++ {
			b.Concat(merged[r])
		}
		blocks = append(blocks, b)
	}
	if sparseGather {
		msgs = append(msgs, merged[0])
		msgs = append(msgs, blocks...)
	}

	// Wire codec: encode onto a fresh buffer and decode, as a transport
	// hands a message over.
	bufs := make([][]byte, len(msgs))
	encode := func() {
		for i, m := range msgs {
			bufs[i] = m.AppendWire(nil)
		}
	}
	decode := func() {
		for _, b := range bufs {
			if _, _, err := stream.DecodeWire(b); err != nil {
				panic(err) // the buffers were just encoded
			}
		}
	}
	encode()
	wireBytes := 0
	for _, b := range bufs {
		wireBytes += len(b)
	}
	encBytes, _ := allocated(3, encode)
	decBytes, _ := allocated(3, decode)
	res.set("stream.wire_encode_ns_per_byte", median(repeat(track, "stream.AppendWire", encode))*1e9/float64(wireBytes), "ns/B")
	res.set("stream.wire_decode_ns_per_byte", median(repeat(track, "stream.DecodeWire", decode))*1e9/float64(wireBytes), "ns/B")
	res.set("stream.wire_alloc_bytes_per_byte", (encBytes+decBytes)/float64(wireBytes), "B/B")

	// MergeK of each partition's P slices, cycling over the partitions.
	var sc *stream.Scratch
	if scratch {
		sc = stream.NewScratch()
	}
	part := 0
	mergeK := func() {
		sc.Release(stream.MergeK(pieces[part%P], sc))
		part++
	}
	mergeK() // fill the scratch pool
	_, mergeObjs := allocated(P, mergeK)
	res.set("stream.mergek_us", median(repeat(track, "stream.MergeK", mergeK))*1e6, "us")
	res.set("stream.mergek_allocs", mergeObjs, "count")

	// Rank 0's allgather: clone its partition, then Concat each stage.
	chain := func() {
		acc := merged[0].Clone()
		for _, b := range blocks {
			acc.Concat(b)
		}
	}
	chainBytes, _ := allocated(3, chain)
	res.set("stream.concat_us", median(repeat(track, "stream.Concat", chain))*1e6, "us")
	res.set("stream.concat_alloc_bytes", chainBytes, "B")

	// Densify of a reduced partition.
	var secs []float64
	for begin := time.Now(); more(len(secs), begin); {
		v := merged[len(secs)%P].Clone()
		s := time.Now()
		v.Densify()
		e := time.Now()
		track.Event("stream.Densify", since(s), since(e))
		secs = append(secs, e.Sub(s).Seconds())
	}
	res.set("stream.densify_us", median(secs)*1e6, "us")
}

// rttSizes are the ping-pong payloads of the transport probe.
var rttSizes = []struct {
	metric string
	bytes  int
	rounds int
}{
	{"comm.rtt_us_1k", 1 << 10, 400},
	{"comm.rtt_us_64k", 64 << 10, 200},
	{"comm.rtt_us_1m", 1 << 20, 40},
}

// probeRTT measures a Proc.Send→Recv round trip between ranks 0 and 1 of
// the workload's own world; the other ranks return at once.
func probeRTT(res *result, track *obs.Track, w *comm.World) {
	for _, sz := range rttSizes {
		payload := make([]float64, sz.bytes/8)
		rtts := make([]float64, 0, sz.rounds)
		comm.Run(w, func(p *comm.Proc) struct{} {
			switch p.Rank() {
			case 0:
				for i := 0; i < sz.rounds; i++ {
					s := time.Now()
					p.Send(1, i, payload, sz.bytes)
					p.Recv(1, i)
					e := time.Now()
					track.Event("comm.Send→Recv", since(s), since(e))
					rtts = append(rtts, e.Sub(s).Seconds())
				}
			case 1:
				for i := 0; i < sz.rounds; i++ {
					p.Send(0, i, p.Recv(0, i).Payload, sz.bytes)
				}
			}
			return struct{}{}
		})
		res.set(sz.metric, median(rtts)*1e6, "us")
	}
}
