package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stream"
)

// poolSize is how many distinct input sets a collective workload cycles
// through; each has its own simulator reference.
const poolSize = 4

// collective is a workload of back-to-back allreduce calls on one backend.
type collective struct {
	backend string // "goroutine", "tcp" or "sim"
	p, n, k int    // ranks, dimension, non-zeros per rank
	alg     core.Algorithm
	scratch bool // pass each rank a reused stream.Scratch
	warmups int  // calls each setup runs after building the world

	pool [][]*stream.Vector // input sets × ranks
	// refDigest and refVTime are the simulator's result digest and
	// virtual completion time per input set. Every rank's result must
	// match the digest bit for bit; on the simulator backend the virtual
	// time must match too.
	refDigest []uint64
	refVTime  []float64

	w    *comm.World
	scr  []*stream.Scratch
	next int
	dur  []float64 // per-rank entry-to-return seconds of the current op
}

// ssar-goroutine: the sparse-result regime. Every message goes through the
// wire codec, and the k-way merge plus the allgather concatenation
// dominate, so a copy or concat change shows here.
func prepareSSARGoroutine(seed int64) (bench, error) {
	return prepareCollective(seed, &collective{backend: "goroutine", p: 8, n: 1 << 16, k: 1024,
		alg: core.SSARSplitAllgather, scratch: true, warmups: 20})
}

// dsar-tcp: the dense-result path (densify, then 0.5–1 MB dense blocks)
// through real sockets, with little sparse merging; the only workload on
// the TCP framing and syscall path.
func prepareDSARTCP(seed int64) (bench, error) {
	return prepareCollective(seed, &collective{backend: "tcp", p: 4, n: 1 << 18, k: 16384,
		alg: core.DSARSplitAllgather, warmups: 10})
}

// sim-p256: the simulator's own wall cost at scale. Payloads pass by
// reference (no codec), so a codec-only change must read no change here.
func prepareSimP256(seed int64) (bench, error) {
	return prepareCollective(seed, &collective{backend: "sim", p: 256, n: 1 << 16, k: 64,
		alg: core.SSARSplitAllgather, warmups: 3})
}

// prepareCollective generates poolSize input sets of P uniform-support
// vectors with k non-zeros each, on the lattice values of the scenario
// generator (odd multiples of 1/16), so every sum is exact and results can
// be compared bit for bit across backends. The simulator's result for each
// set is the reference; it is itself checked against a plain dense sum.
func prepareCollective(seed int64, c *collective) (*collective, error) {
	sc := scenario.Scenario{
		Name: "wallbench", N: c.n, P: c.p, Calls: poolSize,
		Density: scenario.Const(float64(c.k) / float64(c.n)),
	}
	c.pool = sc.Generator(scenario.NewKey(seed)).All()
	c.dur = make([]float64, c.p)
	sim := comm.NewWorld(c.p, simnet.Aries)
	for j, in := range c.pool {
		res := comm.Run(sim, func(p *comm.Proc) *stream.Vector {
			return core.Allreduce(p, in[p.Rank()], core.Options{Algorithm: c.alg})
		})
		want := denseSum(in)
		got := res[0].ToDense()
		for i := range want {
			if got[i] != want[i] {
				return nil, fmt.Errorf("simulator reference for input set %d differs from the dense sum at %d: %v vs %v", j, i, got[i], want[i])
			}
		}
		c.refDigest = append(c.refDigest, digest(res[0]))
		c.refVTime = append(c.refVTime, sim.MaxTime())
	}
	return c, nil
}

func (c *collective) ranks() int { return c.p }

func (c *collective) describe(res *result) {
	res.note("backend", c.backend)
	res.note("algorithm", c.alg.String())
	res.note("p", c.p)
	res.note("n", c.n)
	res.note("k", c.k)
}

func (c *collective) setup() error {
	var err error
	switch c.backend {
	case "goroutine":
		c.w = comm.NewWorld(c.p, simnet.Aries).UseGoroutineTransport()
	case "tcp":
		c.w, err = comm.NewWorldTCP(c.p, simnet.Aries, comm.TCPConfig{})
	case "sim":
		c.w = comm.NewWorld(c.p, simnet.Aries)
	default:
		err = fmt.Errorf("unknown backend %q", c.backend)
	}
	if err != nil {
		return err
	}
	c.scr = nil
	if c.scratch {
		c.scr = make([]*stream.Scratch, c.p)
		for r := range c.scr {
			c.scr[r] = stream.NewScratch()
		}
	}
	for i := 0; i < c.warmups; i++ {
		if r := c.batch(nil); r.err != nil {
			return fmt.Errorf("warm-up call: %w", r.err)
		}
	}
	return nil
}

func (c *collective) close() {
	if c.w != nil {
		c.w.Close()
		c.w = nil
	}
}

func (c *collective) batch(tr *obs.Obs) batchResult {
	j := c.next % len(c.pool)
	c.next++
	in := c.pool[j]
	m0, b0 := c.w.TotalMessages(), c.w.TotalBytes()
	a0, o0, _ := memNow()
	t0 := time.Now()
	res := comm.Run(c.w, func(p *comm.Proc) *stream.Vector {
		r := p.Rank()
		opts := core.Options{Algorithm: c.alg}
		if c.scr != nil {
			opts.Scratch = c.scr[r]
		}
		track := tr.Rank(r)
		s := time.Now()
		if track != nil {
			track.Begin("core.Allreduce", since(s))
		}
		out := core.Allreduce(p, in[r], opts)
		e := time.Now()
		if track != nil {
			track.End(since(e))
		}
		c.dur[r] = e.Sub(s).Seconds()
		return out
	})
	wall := time.Since(t0).Seconds()
	a1, o1, _ := memNow()
	slowest := 0.0
	for _, d := range c.dur {
		slowest = math.Max(slowest, d)
	}
	return batchResult{
		ops: 1, opSec: []float64{slowest}, wallSec: wall,
		allocBytes: a1 - a0, allocObjs: o1 - o0,
		msgs: c.w.TotalMessages() - m0, wireBytes: c.w.TotalBytes() - b0,
		err: c.check(j, res),
	}
}

// check compares every rank's result with the reference of input set j.
func (c *collective) check(j int, res []*stream.Vector) error {
	for r, v := range res {
		if d := digest(v); d != c.refDigest[j] {
			return fmt.Errorf("rank %d result digest %016x, reference %016x (input set %d)", r, d, c.refDigest[j], j)
		}
	}
	if !c.w.WallClock() && c.w.MaxTime() != c.refVTime[j] {
		return fmt.Errorf("virtual time %v, reference %v (input set %d)", c.w.MaxTime(), c.refVTime[j], j)
	}
	return nil
}

func (c *collective) probe(res *result, track *obs.Track) {
	probeStream(res, track, c.pool[0], c.alg != core.DSARSplitAllgather, c.scratch)
	probeRTT(res, track, c.w)
	for _, name := range trainMetrics {
		res.set(name.name, 0, name.unit) // not on this workload's path
	}
}

// digest hashes a vector's representation and values bit for bit (FNV-1a
// over 64-bit words).
func digest(v *stream.Vector) uint64 {
	const prime = 0x100000001b3
	h := uint64(0xcbf29ce484222325)
	mix := func(x uint64) { h = (h ^ x) * prime }
	mix(uint64(v.Dim()))
	if v.IsDense() {
		mix(1)
		for _, x := range v.ToDense() {
			mix(math.Float64bits(x))
		}
		return h
	}
	mix(0)
	idx, val := v.Pairs()
	for i, ix := range idx {
		mix(uint64(uint32(ix)))
		mix(math.Float64bits(val[i]))
	}
	return h
}

// denseSum adds the vectors coordinate by coordinate.
func denseSum(vs []*stream.Vector) []float64 {
	sum := make([]float64, vs[0].Dim())
	for _, v := range vs {
		for i, x := range v.ToDense() {
			sum[i] += x
		}
	}
	return sum
}
