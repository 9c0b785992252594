package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/stream"
	"repro/internal/topk"
	"repro/internal/train"
)

// Shape of the topk-train workload: a residual MLP of about 0.4M
// parameters trained with TopK SGD (8 of every 512 coordinates) on four
// goroutine ranks.
const (
	trainRanks     = 4
	trainInputDim  = 128
	trainWidth     = 256
	trainBlocks    = 3
	trainClasses   = 10
	trainRowsPer   = 512
	trainBatch     = 32
	trainBucket    = 512
	trainK         = 8
	trainLR        = 0.0125
	trainEvalRows  = 64
	episodeSteps   = 8 // steps per timed episode (one epoch)
	warmupEpisodes = 1 // episodes each setup runs
)

// trainMetrics are the per-layer metrics only the training loop has.
var trainMetrics = []struct{ name, unit string }{
	{"nn.step_ms", "ms"},
	{"topk.extract_ms", "ms"},
	{"core.comm_ms_per_step", "ms"},
	{"core.comm_share", "ratio"},
	{"train.other_ms", "ms"},
}

// training is the topk-train workload. A batch is one episode: a fresh
// model from the seed trained for episodeSteps steps (one epoch, ending in
// the loop's global evaluation), so every episode must end in the same
// final loss and parameters as the simulator reference.
type training struct {
	seed   int64
	shards []*data.DenseDataset
	cfg    train.Config

	refLoss   float64
	refDigest uint64

	w *comm.World
	// Layer times summed over the untraced episodes' ranks.
	stepSec, nnSec, commSec, runSec float64
	rankSteps                       int
}

func prepareTopKTrain(seed int64) (bench, error) {
	ds := data.SyntheticDense(data.DenseConfig{
		Rows: trainRanks * trainRowsPer, Dim: trainInputDim, Classes: trainClasses, Sep: 3, Seed: seed,
	})
	t := &training{seed: seed}
	for r := 0; r < trainRanks; r++ {
		t.shards = append(t.shards, ds.Shard(r, trainRanks))
	}
	n := len(t.newTask(0, nil).Params())
	t.cfg = train.Config{
		Method: train.MethodTopK, LR: trainLR, BatchPerNode: trainBatch,
		StepsPerEpoch: episodeSteps, Epochs: 1, Bucket: trainBucket, K: trainK,
		// Auto resolves from the static Aries profile; no adaptation
		// controller, so the schedule is the same on every backend.
		Algorithm:    core.Auto,
		BucketCoords: core.BucketCoords(core.CostScenario{N: n, P: trainRanks, Profile: simnet.Aries}),
		EvalSamples:  trainEvalRows, Seed: seed,
	}
	tasks, pts := t.episode(comm.NewWorld(trainRanks, simnet.Aries), nil)
	if err := lockstep(tasks, pts); err != nil {
		return nil, fmt.Errorf("simulator reference: %w", err)
	}
	t.refLoss = finalLoss(pts[0])
	t.refDigest = paramDigest(tasks[0])
	return t, nil
}

func (t *training) ranks() int { return trainRanks }

func (t *training) describe(res *result) {
	res.note("backend", "goroutine")
	res.note("p", trainRanks)
	res.note("params", len(t.newTask(0, nil).Params()))
	res.note("bucket_coords", t.cfg.BucketCoords)
	res.note("steps_per_episode", episodeSteps)
	res.note("final_loss", t.refLoss)
}

// newTask builds rank r's task: a fresh model initialized from the seed,
// timed through track.
func (t *training) newTask(r int, track *obs.Track) *timedTask {
	net := nn.ResidualMLP(t.seed, trainInputDim, trainWidth, trainBlocks, trainClasses, 1)
	return &timedTask{MLPTask: &train.MLPTask{Net: net, Shard: t.shards[r]}, track: track}
}

// episode trains fresh models on w and returns each rank's task and history.
func (t *training) episode(w *comm.World, tr *obs.Obs) ([]*timedTask, [][]train.Point) {
	tasks := make([]*timedTask, trainRanks)
	for r := range tasks {
		tasks[r] = t.newTask(r, tr.Rank(r))
	}
	pts := comm.Run(w, func(p *comm.Proc) []train.Point {
		track := tasks[p.Rank()].track
		if track == nil {
			return train.Run(p, tasks[p.Rank()], t.cfg)
		}
		track.Begin("train.Run", since(time.Now()))
		defer func() { track.End(since(time.Now())) }()
		return train.Run(p, tasks[p.Rank()], t.cfg)
	})
	return tasks, pts
}

func (t *training) setup() error {
	t.w = comm.NewWorld(trainRanks, simnet.Aries).UseGoroutineTransport()
	for i := 0; i < warmupEpisodes; i++ {
		if r := t.batch(nil); r.err != nil {
			return fmt.Errorf("warm-up episode: %w", r.err)
		}
	}
	return nil
}

func (t *training) close() {
	if t.w != nil {
		t.w.Close()
		t.w = nil
	}
}

func (t *training) batch(tr *obs.Obs) batchResult {
	m0, b0 := t.w.TotalMessages(), t.w.TotalBytes()
	a0, o0, _ := memNow()
	t0 := time.Now()
	tasks, pts := t.episode(t.w, tr)
	wall := time.Since(t0).Seconds()
	a1, o1, _ := memNow()
	r := batchResult{
		ops: episodeSteps, wallSec: wall,
		allocBytes: a1 - a0, allocObjs: o1 - o0,
		msgs: t.w.TotalMessages() - m0, wireBytes: t.w.TotalBytes() - b0,
		err: t.check(tasks, pts),
	}
	if r.err != nil {
		return r
	}
	// A step runs from its ZeroGrads to the next one (the last step ends
	// at the evaluation); the op's time is the slowest rank's.
	r.opSec = make([]float64, episodeSteps)
	for _, task := range tasks {
		for i := range r.opSec {
			r.opSec[i] = math.Max(r.opSec[i], task.marks[i+1].Sub(task.marks[i]).Seconds())
		}
	}
	if tr == nil {
		for rank, task := range tasks {
			last := pts[rank][len(pts[rank])-1]
			t.stepSec += task.marks[episodeSteps].Sub(task.marks[0]).Seconds()
			t.nnSec += task.nnSec
			t.commSec += last.CommTime
			t.runSec += last.Time
		}
		t.rankSteps += trainRanks * episodeSteps
	}
	return r
}

// check requires the replicas to be in lockstep and to match the
// simulator reference bit for bit.
func (t *training) check(tasks []*timedTask, pts [][]train.Point) error {
	if err := lockstep(tasks, pts); err != nil {
		return err
	}
	if l := finalLoss(pts[0]); math.Float64bits(l) != math.Float64bits(t.refLoss) {
		return fmt.Errorf("final loss %v, reference %v", l, t.refLoss)
	}
	if d := paramDigest(tasks[0]); d != t.refDigest {
		return fmt.Errorf("parameter digest %016x, reference %016x", d, t.refDigest)
	}
	return nil
}

// lockstep checks that every rank took episodeSteps steps and ended with
// rank 0's parameters and loss.
func lockstep(tasks []*timedTask, pts [][]train.Point) error {
	d0, l0 := paramDigest(tasks[0]), finalLoss(pts[0])
	for r, task := range tasks {
		if len(task.marks) != episodeSteps+1 {
			return fmt.Errorf("rank %d marked %d step boundaries, want %d", r, len(task.marks), episodeSteps+1)
		}
		if d := paramDigest(task); d != d0 {
			return fmt.Errorf("rank %d parameters diverged from rank 0's", r)
		}
		if l := finalLoss(pts[r]); math.Float64bits(l) != math.Float64bits(l0) {
			return fmt.Errorf("rank %d final loss %v, rank 0 %v", r, l, l0)
		}
	}
	return nil
}

func finalLoss(pts []train.Point) float64 { return pts[len(pts)-1].Loss }

func paramDigest(t *timedTask) uint64 {
	return digest(stream.WrapDense(t.Params(), stream.OpSum))
}

func (t *training) probe(res *result, track *obs.Track) {
	// The exchanged vectors: each rank's TopK contribution after one step.
	in := make([]*stream.Vector, trainRanks)
	var grads []float64
	for r := range in {
		task := t.newTask(r, nil)
		task.ZeroGrads()
		task.Step(firstRows(trainBatch))
		acc := topk.NewResidual(len(task.Grads()))
		acc.Accumulate(task.Grads(), trainLR)
		in[r] = acc.Extract(trainBucket, trainK)
		if r == 0 {
			grads = task.Grads()
		}
	}
	probeStream(res, track, in, true, false)
	probeRTT(res, track, t.w)

	// Error feedback plus per-layer selection, as the loop runs it.
	acc := topk.NewResidual(len(grads))
	spans := t.newTask(0, nil).LayerSpans()
	extract := repeat(track, "topk.Accumulate+ExtractSpan", func() {
		acc.Accumulate(grads, trainLR)
		for _, s := range spans {
			acc.ExtractSpan(s[0], s[1], trainBucket, trainK)
		}
	})
	extractMs := median(extract) * 1e3

	steps := float64(max(t.rankSteps, 1))
	stepMs := t.stepSec / steps * 1e3
	nnMs := t.nnSec / steps * 1e3
	commMs := t.commSec / steps * 1e3
	res.set("nn.step_ms", nnMs, "ms")
	res.set("topk.extract_ms", extractMs, "ms")
	res.set("core.comm_ms_per_step", commMs, "ms")
	res.set("core.comm_share", t.commSec/math.Max(t.runSec, 1e-12), "ratio")
	// On the bucketed path CommTime already covers the ExtractSpan calls
	// and the parameter updates, so the remainder is batch sampling,
	// gradient zeroing and error-feedback accumulation.
	res.set("train.other_ms", stepMs-nnMs-commMs, "ms")
}

func firstRows(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// timedTask wraps a training task to time the loop from outside it:
// ZeroGrads opens every step, the epoch's evaluation closes the last one,
// and Step is the model's forward and backward pass.
type timedTask struct {
	*train.MLPTask
	track *obs.Track
	marks []time.Time
	nnSec float64
}

// ZeroGrads marks the start of a step.
func (t *timedTask) ZeroGrads() {
	t.marks = append(t.marks, time.Now())
	t.MLPTask.ZeroGrads()
}

// Step times the forward and backward pass.
func (t *timedTask) Step(idx []int) (float64, int) {
	s := time.Now()
	if t.track != nil {
		t.track.Begin("nn.Step", since(s))
	}
	loss, correct := t.MLPTask.Step(idx)
	e := time.Now()
	if t.track != nil {
		t.track.End(since(e))
	}
	t.nnSec += e.Sub(s).Seconds()
	return loss, correct
}

// Eval marks the end of the epoch's last step.
func (t *timedTask) Eval(idx []int) (float64, int, int) {
	if len(t.marks) == episodeSteps {
		t.marks = append(t.marks, time.Now())
	}
	return t.MLPTask.Eval(idx)
}
