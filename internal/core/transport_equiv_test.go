package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/comm"
	"repro/internal/quant"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// TestCrossTransportEquivalence is the cross-transport equivalence table:
// every collective — SSAR/DSAR variants, the hierarchical algorithms on
// ragged tiers, quantized and not — must produce bit-identical results on
// the simulator, the goroutine backend, and loopback TCP, at P ∈
// {4, 16, 32}. Dyadic values make float addition exact, so any divergence
// is a transport bug (payload codec corruption, reordering, or a merge
// path that departed from the serial fold), never float noise. The
// simulator is the reference; its result is also checked against the
// plain chained reduction.
func TestCrossTransportEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// RanksPerNode 3 keeps the last node ragged at every tested P
	// (4 = 3+1, 16 = 5·3+1, 32 = 10·3+2).
	topo := simnet.TwoLevel(3, simnet.NVLinkLike, simnet.Aries, 0)
	algs := []struct {
		name  string
		alg   Algorithm
		hier  bool
		quant bool // exercised with quantization too
	}{
		{"ssar-recdouble", SSARRecDouble, false, false},
		{"ssar-split", SSARSplitAllgather, false, false},
		{"dsar-split", DSARSplitAllgather, false, true},
		{"hier-ssar", HierSSAR, true, false},
		{"hier-dsar", HierDSAR, true, true},
		{"dense-raben", DenseRabenseifner, false, false},
		{"ring-sparse", RingSparse, false, false},
	}

	for _, P := range []int{4, 16, 32} {
		simFlat := comm.NewWorld(P, simnet.Aries)
		simHier := comm.NewWorldHier(P, topo)
		goFlat := comm.NewWorld(P, simnet.Aries).UseGoroutineTransport()
		goHier := comm.NewWorldHier(P, topo).UseGoroutineTransport()
		tcpFlat, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{})
		if err != nil {
			t.Fatalf("P=%d: tcp flat world: %v", P, err)
		}
		tcpHier, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{Hierarchy: &topo})
		if err != nil {
			t.Fatalf("P=%d: tcp hier world: %v", P, err)
		}
		defer tcpFlat.Close()
		defer tcpHier.Close()

		for _, pat := range patterns {
			n := 600 + rng.Intn(300)
			k := 1 + rng.Intn(n/5)
			inputs := pat.gen(rng, n, k, P)

			for _, tc := range algs {
				quantModes := []bool{false}
				if tc.quant {
					quantModes = append(quantModes, true)
				}
				for _, quantized := range quantModes {
					opts := Options{Algorithm: tc.alg, Seed: 42}
					if quantized {
						opts.Quant = &quant.Config{Bits: 4, Bucket: 256, Norm: quant.NormMax}
					}
					run := func(w *comm.World) [][]float64 {
						return comm.Run(w, func(p *comm.Proc) []float64 {
							return Allreduce(p, inputs[p.Rank()], opts).ToDense()
						})
					}
					simW, goW, tcpW := simFlat, goFlat, tcpFlat
					if tc.hier {
						simW, goW, tcpW = simHier, goHier, tcpHier
					}
					want := run(simW)
					label := fmt.Sprintf("P=%d pattern=%s alg=%s quant=%v", P, pat.name, tc.name, quantized)
					for backend, got := range map[string][][]float64{
						"goroutine": run(goW),
						"tcp":       run(tcpW),
					} {
						for r := range got {
							for i := range want[r] {
								if got[r][i] != want[r][i] {
									t.Fatalf("%s backend=%s rank=%d coord=%d: got %g, sim %g",
										label, backend, r, i, got[r][i], want[r][i])
								}
							}
						}
					}
					if !quantized && tc.alg != DenseRabenseifner {
						// Cross-check the simulator itself against the
						// chained reference reduction.
						ref := chainReduce(inputs)
						for i, x := range ref {
							if want[0][i] != x {
								t.Fatalf("%s: sim rank 0 coord %d: got %g, reference %g", label, i, want[0][i], x)
							}
						}
					}
				}
			}
		}
	}
}

// chainReduce folds the inputs densely in rank order — the semantic
// reference every allreduce must match on exact (dyadic) values.
func chainReduce(inputs []*stream.Vector) []float64 {
	out := make([]float64, inputs[0].Dim())
	for _, v := range inputs {
		for i, x := range v.ToDense() {
			out[i] += x
		}
	}
	return out
}

// TestCrossTransportRaggedLevels drives the N-level recursive collectives
// over a ragged three-level hierarchy on both real backends and checks
// bit-identity against the simulator, at the depth Auto would exploit and
// at a truncated depth.
func TestCrossTransportRaggedLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := simnet.Hierarchy{Levels: []simnet.Level{
		{GroupSize: 3, Profile: simnet.NVLinkLike},
		{GroupSize: 4, Profile: simnet.InfiniBandFDR},
		{GroupSize: 0, Profile: simnet.Aries},
	}}
	const P = 26 // 3·4 = 12 per level-1 group: 26 = 12 + 12 + 2, ragged twice
	n := 800
	k := 120
	inputs := patterns[0].gen(rng, n, k, P)

	sim := comm.NewWorldHier(P, h)
	gor := comm.NewWorldHier(P, h).UseGoroutineTransport()
	tcp, err := comm.NewWorldTCP(P, simnet.Aries, comm.TCPConfig{Hierarchy: &h})
	if err != nil {
		t.Fatalf("tcp world: %v", err)
	}
	defer tcp.Close()

	for _, levels := range []int{0, 2} {
		for _, alg := range []Algorithm{HierSSAR, HierDSAR} {
			opts := Options{Algorithm: alg, Levels: levels, Seed: 3}
			run := func(w *comm.World) [][]float64 {
				return comm.Run(w, func(p *comm.Proc) []float64 {
					return Allreduce(p, inputs[p.Rank()], opts).ToDense()
				})
			}
			want := run(sim)
			for backend, got := range map[string][][]float64{"goroutine": run(gor), "tcp": run(tcp)} {
				for r := range got {
					for i := range want[r] {
						if got[r][i] != want[r][i] {
							t.Fatalf("alg=%v levels=%d backend=%s rank=%d coord=%d: got %g, sim %g",
								alg, levels, backend, r, i, got[r][i], want[r][i])
						}
					}
				}
			}
		}
	}
}

// chainedAllgather is the accumulate-as-you-go concatenating allgather
// that sparseAllgatherConcat's gather-then-concat form replaced: every
// stage clones the accumulator onto the wire and concatenates the peer's
// into it. It is the reference for charges, modeled bytes and the
// result's representation.
func chainedAllgather(p *comm.Proc, mine *stream.Vector, base int) *stream.Vector {
	acc := mine.Clone()
	rank, P := p.Rank(), p.Size()
	p2 := largestPow2(P)
	rem := P - p2
	if rem > 0 {
		if rank >= p2 {
			p.Send(rank-p2, base, acc, acc.WireBytes())
			return p.Recv(rank-p2, base+1).Payload.(*stream.Vector)
		}
		if rank < rem {
			concatCharged(p, acc, p.Recv(rank+p2, base).Payload.(*stream.Vector))
		}
	}
	for stage, dist := 0, 1; dist < p2; stage, dist = stage+1, dist*2 {
		m := p.SendRecv(rank^dist, base+2+stage, acc.Clone(), acc.WireBytes())
		concatCharged(p, acc, m.Payload.(*stream.Vector))
	}
	if rem > 0 && rank < rem {
		p.Send(rank+p2, base+1, acc.Clone(), acc.WireBytes())
	}
	return acc
}

// TestCrossTransportAllgather is the allgather part of the equivalence
// table: SparseAllgather over disjoint but interleaved supports (the
// pieces cannot be joined in rank order), over a union that crosses δ
// (the result must come back dense), and at P = 6 (the fold path). On
// the simulator the result, its representation, every rank's virtual
// time and the modeled traffic must equal the chained reference; the
// goroutine and TCP backends must return the simulator's result bit for
// bit, in the same representation.
func TestCrossTransportAllgather(t *testing.T) {
	const n = 800 // δ = 533 at 8-byte values
	cases := []struct {
		name      string
		P, k      int
		wantDense bool
	}{
		{"interleaved-disjoint", 4, 40, false},
		{"union-crosses-delta", 8, 90, true},
		{"fold-P6", 6, 50, false},
		{"fold-P6-crosses-delta", 6, 100, true},
	}
	rng := rand.New(rand.NewSource(1206))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inputs := patterns[2].gen(rng, n, tc.k, tc.P) // disjoint random supports
			type out struct {
				dense bool
				vals  []float64
			}
			run := func(w *comm.World, gather func(p *comm.Proc, mine *stream.Vector) *stream.Vector) []out {
				return comm.Run(w, func(p *comm.Proc) out {
					res := gather(p, inputs[p.Rank()])
					return out{res.IsDense(), res.ToDense()}
				})
			}
			same := func(label string, got, want []out) {
				t.Helper()
				for r := range want {
					if got[r].dense != want[r].dense {
						t.Fatalf("%s rank %d: dense=%v, want %v", label, r, got[r].dense, want[r].dense)
					}
					for i := range want[r].vals {
						if got[r].vals[i] != want[r].vals[i] {
							t.Fatalf("%s rank %d coord %d: got %g, want %g", label, r, i, got[r].vals[i], want[r].vals[i])
						}
					}
				}
			}

			refW := comm.NewWorld(tc.P, simnet.Aries)
			ref := run(refW, func(p *comm.Proc, mine *stream.Vector) *stream.Vector {
				return chainedAllgather(p, mine, p.NextTagBase())
			})
			simW := comm.NewWorld(tc.P, simnet.Aries)
			sim := run(simW, SparseAllgather)
			same("sim vs chained reference", sim, ref)
			if sim[0].dense != tc.wantDense {
				t.Fatalf("result dense=%v, want %v", sim[0].dense, tc.wantDense)
			}
			for r, tm := range simW.Times() {
				if want := refW.Times()[r]; tm != want {
					t.Fatalf("rank %d virtual time %v, chained reference %v", r, tm, want)
				}
			}
			if simW.TotalBytes() != refW.TotalBytes() || simW.TotalMessages() != refW.TotalMessages() {
				t.Fatalf("traffic %d msgs / %d B, chained reference %d / %d",
					simW.TotalMessages(), simW.TotalBytes(), refW.TotalMessages(), refW.TotalBytes())
			}

			same("goroutine vs sim", run(comm.NewWorld(tc.P, simnet.Aries).UseGoroutineTransport(), SparseAllgather), sim)
			tcpW, err := comm.NewWorldTCP(tc.P, simnet.Aries, comm.TCPConfig{})
			if err != nil {
				t.Fatalf("tcp world: %v", err)
			}
			defer tcpW.Close()
			same("tcp vs sim", run(tcpW, SparseAllgather), sim)
		})
	}
}

// TestConcatGatherMatchesChained: gathering pieces and concatenating them
// once must charge, fold by fold, exactly what chained concatCharged
// charges, report the same modeled wire size after every fold, and end in
// the same vector and representation — over random disjoint pieces that
// interleave, are empty, are dense, or push the union past δ.
func TestConcatGatherMatchesChained(t *testing.T) {
	rng := rand.New(rand.NewSource(4411))
	w := comm.NewWorld(1, testProfile)
	comm.Run(w, func(p *comm.Proc) bool {
		for trial := 0; trial < 300; trial++ {
			n := 40 + rng.Intn(200)
			perm := rng.Perm(n)
			var pieces []*stream.Vector
			for len(pieces) < 2+rng.Intn(10) {
				k := rng.Intn(n/6 + 1)
				if k > len(perm) {
					k = len(perm)
				}
				idx := make([]int32, k)
				val := make([]float64, k)
				for i := range idx {
					idx[i], val[i] = int32(perm[i]), dyadic(rng)
				}
				perm = perm[k:]
				v := stream.NewSparse(n, idx, val, stream.OpSum)
				if rng.Intn(8) == 0 {
					v = stream.NewDense(v.ToDense(), stream.OpSum)
				}
				pieces = append(pieces, v)
			}
			// Group pieces[1:] into messages of 1–3 pieces; a message is the
			// sender's accumulator, built by chained concatenation.
			// Each side charges its own forked clock; both start together.
			chained, gathered := p.Fork(), p.Fork()
			acc := pieces[0].Clone()
			g := gatherFrom(pieces[0].Clone(), len(pieces))
			for rest := pieces[1:]; len(rest) > 0; {
				m := 1 + rng.Intn(3)
				if m > len(rest) {
					m = len(rest)
				}
				msg := rest[:m]
				rest = rest[m:]
				in := msg[0].Clone()
				for _, v := range msg[1:] {
					if in.IsDense() || v.IsDense() {
						in.Add(v)
					} else {
						in.Concat(v)
					}
				}
				if g.wireBytes() != acc.WireBytes() {
					t.Fatalf("trial %d: gather wire size %d, chained %d", trial, g.wireBytes(), acc.WireBytes())
				}
				concatCharged(chained, acc, in)
				g.fold(gathered, msg)
				if gathered.Now() != chained.Now() {
					t.Fatalf("trial %d: clock %v after the fold, chained %v", trial, gathered.Now(), chained.Now())
				}
			}
			if g.wireBytes() != acc.WireBytes() {
				t.Fatalf("trial %d: final gather wire size %d, chained %d", trial, g.wireBytes(), acc.WireBytes())
			}
			got := concatPieces(g.pieces, nil)
			if got.IsDense() != acc.IsDense() || got.Delta() != acc.Delta() || got.ValueBytes() != acc.ValueBytes() {
				t.Fatalf("trial %d: result %v, chained %v", trial, got, acc)
			}
			gv, av := got.ToDense(), acc.ToDense()
			for i := range av {
				if gv[i] != av[i] {
					t.Fatalf("trial %d coord %d: got %g, chained %g", trial, i, gv[i], av[i])
				}
			}
		}
		return true
	})
}

// TestBlocksCodec: the core.blocks payload codec round-trips, and a block
// count the frame cannot hold is rejected before it sizes an allocation.
func TestBlocksCodec(t *testing.T) {
	in := []block{{lo: 3, val: []float64{1, -2.5}}, {lo: 0, val: []float64{}}}
	out, err := decodeBlocks(appendBlocks(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(out) != fmt.Sprint(in) {
		t.Fatalf("round trip %v, want %v", out, in)
	}
	if _, err := decodeBlocks(append([]byte{0, 0, 0, 0x95}, make([]byte, 16)...)); err == nil {
		t.Fatalf("a block count of 0x95000000 in a 20-byte frame decoded")
	}
}
