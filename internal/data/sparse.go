// Package data provides the datasets for the paper's experiments. The
// originals (URL, Webspam, CIFAR-10, ImageNet, ATIS, Hansards, and a
// proprietary ASR corpus — Table 1) are not available offline, so each is
// replaced by a deterministic synthetic generator matching the property
// the experiment depends on: per-sample feature sparsity for the linear
// classification tasks, class-conditional structure for the vision tasks,
// and token-sequence structure for the language tasks.
package data

import (
	"fmt"
	"math/rand"
	"sort"
)

// SparseDataset is a row-major sparse design matrix with ±1 labels, the
// shape of the URL and Webspam binary classification tasks.
type SparseDataset struct {
	// Dim is the feature dimension N.
	Dim int
	// RowStart[i]..RowStart[i+1] index the i-th sample's entries.
	RowStart []int32
	// Idx holds feature indices, sorted within each row.
	Idx []int32
	// Val holds feature values parallel to Idx.
	Val []float64
	// Label holds ±1 labels.
	Label []float64
	// TrueW, when produced by a generator, is the planted ground-truth
	// weight vector (nil for loaded datasets).
	TrueW []float64
}

// Rows returns the number of samples.
func (d *SparseDataset) Rows() int { return len(d.RowStart) - 1 }

// Row returns the i-th sample's indices and values (views into backing
// arrays; do not modify).
func (d *SparseDataset) Row(i int) ([]int32, []float64) {
	lo, hi := d.RowStart[i], d.RowStart[i+1]
	return d.Idx[lo:hi], d.Val[lo:hi]
}

// NNZ returns the total number of stored entries.
func (d *SparseDataset) NNZ() int { return len(d.Idx) }

// Density returns the average per-row density.
func (d *SparseDataset) Density() float64 {
	return float64(d.NNZ()) / (float64(d.Rows()) * float64(d.Dim))
}

// Shard returns the contiguous row shard for the given rank out of P, the
// data-parallel partitioning MPI-OPT performs with MPI-IO. The shard
// shares backing arrays with the parent.
func (d *SparseDataset) Shard(rank, P int) *SparseDataset {
	rows := d.Rows()
	lo := rank * rows / P
	hi := (rank + 1) * rows / P
	return &SparseDataset{
		Dim:      d.Dim,
		RowStart: d.RowStart[lo : hi+1],
		Idx:      d.Idx,
		Val:      d.Val,
		Label:    d.Label[lo:hi],
		TrueW:    d.TrueW,
	}
}

// SparseConfig parameterizes SyntheticSparse.
type SparseConfig struct {
	// Rows is the number of samples.
	Rows int
	// Dim is the feature dimension.
	Dim int
	// NNZPerRow is the average number of features per sample (trigram-like
	// text features: each sample touches a tiny subset of a huge space).
	NNZPerRow int
	// HotFraction of the dimension receives ClusterBias of the probability
	// mass, modeling the skewed feature frequencies of text data. Zero
	// disables clustering.
	HotFraction float64
	// ClusterBias is the probability that an index is drawn from the hot
	// region (requires HotFraction > 0).
	ClusterBias float64
	// NoiseRate flips this fraction of labels.
	NoiseRate float64
	// Seed makes generation deterministic.
	Seed int64
}

// URLShape mirrors the URL dataset's shape (Table 1: 2.4M samples, 3.2M
// features) scaled by the given factor in both axes.
func URLShape(scale float64) SparseConfig {
	return SparseConfig{
		Rows: int(2396130 * scale), Dim: int(3231961 * scale),
		NNZPerRow: 116, HotFraction: 0.02, ClusterBias: 0.6,
		NoiseRate: 0.02, Seed: 1,
	}
}

// WebspamShape mirrors the Webspam dataset's shape (Table 1: 350k samples,
// 16.6M trigram features) scaled by the given factor in both axes.
func WebspamShape(scale float64) SparseConfig {
	return SparseConfig{
		Rows: int(350000 * scale), Dim: int(16609143 * scale),
		NNZPerRow: 3730, HotFraction: 0.01, ClusterBias: 0.5,
		NoiseRate: 0.02, Seed: 2,
	}
}

// SyntheticSparse generates a linearly separable (up to NoiseRate) sparse
// binary classification dataset: a sparse ground-truth weight vector is
// planted and labels are sign(x·w*), so distributed solvers can be
// validated by recovering accuracy ≥ 1−NoiseRate.
func SyntheticSparse(cfg SparseConfig) *SparseDataset {
	if cfg.Rows <= 0 || cfg.Dim <= 0 || cfg.NNZPerRow <= 0 {
		panic(fmt.Sprintf("data: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &SparseDataset{
		Dim:      cfg.Dim,
		RowStart: make([]int32, 1, cfg.Rows+1),
		Idx:      make([]int32, 0, cfg.Rows*cfg.NNZPerRow),
		Val:      make([]float64, 0, cfg.Rows*cfg.NNZPerRow),
		Label:    make([]float64, cfg.Rows),
	}
	// Plant a ground-truth weight vector over the hot region (plus a thin
	// tail) so most samples carry signal.
	d.TrueW = make([]float64, cfg.Dim)
	hot := int(cfg.HotFraction * float64(cfg.Dim))
	if hot < 1 {
		hot = cfg.Dim / 10
		if hot < 1 {
			hot = 1
		}
	}
	for j := 0; j < hot; j++ {
		d.TrueW[j] = rng.NormFloat64()
	}

	row := make(map[int32]float64, cfg.NNZPerRow)
	for i := 0; i < cfg.Rows; i++ {
		clear(row)
		nnz := 1 + rng.Intn(2*cfg.NNZPerRow) // mean ≈ NNZPerRow
		if nnz > cfg.Dim {
			nnz = cfg.Dim
		}
		for len(row) < nnz {
			var ix int32
			if cfg.HotFraction > 0 && rng.Float64() < cfg.ClusterBias {
				ix = int32(rng.Intn(hot))
			} else {
				ix = int32(rng.Intn(cfg.Dim))
			}
			row[ix] = 1 // binary trigram presence features
		}
		idx := make([]int32, 0, len(row))
		for ix := range row {
			idx = append(idx, ix)
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		margin := 0.0
		for _, ix := range idx {
			d.Idx = append(d.Idx, ix)
			d.Val = append(d.Val, row[ix])
			margin += d.TrueW[ix]
		}
		d.RowStart = append(d.RowStart, int32(len(d.Idx)))
		y := 1.0
		if margin < 0 {
			y = -1
		}
		if rng.Float64() < cfg.NoiseRate {
			y = -y
		}
		d.Label[i] = y
	}
	return d
}
