package data

import (
	"math"
	"sort"
	"testing"
)

func smallSparse() *SparseDataset {
	return SyntheticSparse(SparseConfig{
		Rows: 500, Dim: 2000, NNZPerRow: 20,
		HotFraction: 0.05, ClusterBias: 0.6, NoiseRate: 0.02, Seed: 1,
	})
}

func TestSyntheticSparseShape(t *testing.T) {
	d := smallSparse()
	if d.Rows() != 500 || d.Dim != 2000 {
		t.Fatalf("shape %dx%d, want 500x2000", d.Rows(), d.Dim)
	}
	for i := 0; i < d.Rows(); i++ {
		idx, val := d.Row(i)
		if len(idx) == 0 || len(idx) != len(val) {
			t.Fatalf("row %d: bad lengths", i)
		}
		if !sort.SliceIsSorted(idx, func(a, b int) bool { return idx[a] < idx[b] }) {
			t.Fatalf("row %d: indices not sorted", i)
		}
		for _, ix := range idx {
			if ix < 0 || int(ix) >= d.Dim {
				t.Fatalf("row %d: index %d out of range", i, ix)
			}
		}
		if d.Label[i] != 1 && d.Label[i] != -1 {
			t.Fatalf("row %d: label %g not ±1", i, d.Label[i])
		}
	}
}

func TestSyntheticSparseIsLearnable(t *testing.T) {
	// The planted ground truth must classify the generated labels at
	// ≥ 1 − noise accuracy; otherwise solvers can never validate recovery.
	d := smallSparse()
	correct := 0
	for i := 0; i < d.Rows(); i++ {
		idx, val := d.Row(i)
		margin := 0.0
		for j, ix := range idx {
			margin += d.TrueW[ix] * val[j]
		}
		pred := 1.0
		if margin < 0 {
			pred = -1
		}
		if pred == d.Label[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(d.Rows())
	if acc < 0.95 {
		t.Fatalf("ground-truth accuracy %g, want ≥0.95", acc)
	}
}

func TestSyntheticSparseDeterministic(t *testing.T) {
	a, b := smallSparse(), smallSparse()
	if a.NNZ() != b.NNZ() || a.Label[13] != b.Label[13] || a.Idx[100] != b.Idx[100] {
		t.Fatal("same seed must reproduce the dataset")
	}
}

func TestSparseShardPartition(t *testing.T) {
	d := smallSparse()
	P := 7
	total := 0
	for r := 0; r < P; r++ {
		s := d.Shard(r, P)
		total += s.Rows()
		if s.Dim != d.Dim {
			t.Fatal("shard changed dimension")
		}
		if s.Rows() > 0 {
			idx, _ := s.Row(0)
			if len(idx) == 0 {
				t.Fatal("shard row empty")
			}
		}
	}
	if total != d.Rows() {
		t.Fatalf("shards cover %d rows, want %d", total, d.Rows())
	}
}

func TestShardRowsMatchParent(t *testing.T) {
	d := smallSparse()
	s := d.Shard(2, 5)
	off := 2 * d.Rows() / 5
	for i := 0; i < s.Rows(); i++ {
		si, sv := s.Row(i)
		pi, pv := d.Row(off + i)
		if len(si) != len(pi) || si[0] != pi[0] || sv[0] != pv[0] {
			t.Fatalf("shard row %d differs from parent row %d", i, off+i)
		}
		if s.Label[i] != d.Label[off+i] {
			t.Fatal("shard label mismatch")
		}
	}
}

func TestTable1DatasetShapes(t *testing.T) {
	// Table 1 inventory: every generator config preserves its dataset's
	// shape ratios at scale 1.
	url := URLShape(1)
	if url.Rows != 2396130 || url.Dim != 3231961 {
		t.Fatalf("URL shape %d×%d mismatch with Table 1", url.Rows, url.Dim)
	}
	web := WebspamShape(1)
	if web.Rows != 350000 || web.Dim != 16609143 {
		t.Fatalf("Webspam shape %d×%d mismatch with Table 1", web.Rows, web.Dim)
	}
	cifar := CIFARShape(1)
	if cifar.Rows != 60000 || cifar.Dim != 32*32*3 || cifar.Classes != 10 {
		t.Fatalf("CIFAR shape mismatch: %+v", cifar)
	}
	atis := ATISShape(1)
	if atis.Rows != 4978 {
		t.Fatalf("ATIS rows %d mismatch with Table 1", atis.Rows)
	}
	imgnet := ImageNetShape(1000)
	if imgnet.Classes != 1000 {
		t.Fatalf("ImageNet classes %d, want 1000", imgnet.Classes)
	}
}

func TestSyntheticDenseSeparation(t *testing.T) {
	d := SyntheticDense(DenseConfig{Rows: 400, Dim: 32, Classes: 4, Sep: 4, Seed: 9})
	if d.Rows() != 400 || d.Dim() != 32 {
		t.Fatal("wrong shape")
	}
	// Nearest-class-mean classification must beat chance by a wide margin.
	means := make([][]float64, d.Classes)
	counts := make([]int, d.Classes)
	for c := range means {
		means[c] = make([]float64, d.Dim())
	}
	for i, x := range d.X {
		c := d.Y[i]
		counts[c]++
		for j, v := range x {
			means[c][j] += v
		}
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i, x := range d.X {
		best, bestDist := -1, math.Inf(1)
		for c := range means {
			dist := 0.0
			for j := range x {
				diff := x[j] - means[c][j]
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		if best == d.Y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 400; acc < 0.9 {
		t.Fatalf("nearest-mean accuracy %g, want ≥0.9", acc)
	}
}

func TestDenseSplit(t *testing.T) {
	d := SyntheticDense(DenseConfig{Rows: 100, Dim: 8, Classes: 3, Sep: 2, Seed: 1})
	tr, va := d.Split(0.8)
	if tr.Rows() != 80 || va.Rows() != 20 {
		t.Fatalf("split %d/%d, want 80/20", tr.Rows(), va.Rows())
	}
}

func TestSyntheticSequencesShape(t *testing.T) {
	d := SyntheticSequences(SequenceConfig{Rows: 200, Vocab: 100, Classes: 8, MinLen: 3, MaxLen: 12, Seed: 2})
	if d.Rows() != 200 {
		t.Fatal("wrong row count")
	}
	for i, s := range d.Seqs {
		if len(s) < 3 || len(s) > 12 {
			t.Fatalf("seq %d length %d outside [3,12]", i, len(s))
		}
		for _, tok := range s {
			if tok < 0 || tok >= 100 {
				t.Fatalf("seq %d: token %d out of vocab", i, tok)
			}
		}
		if d.Y[i] < 0 || d.Y[i] >= 8 {
			t.Fatalf("seq %d: label %d out of range", i, d.Y[i])
		}
	}
}

func TestSequenceKeywordSignal(t *testing.T) {
	// The class's keyword tokens must appear more often in its own
	// sequences than in others' — the signal a recurrent model learns.
	d := SyntheticSequences(SequenceConfig{Rows: 2000, Vocab: 100, Classes: 5, MinLen: 8, MaxLen: 16, Seed: 3})
	inClass, outClass := 0.0, 0.0
	inN, outN := 0, 0
	for i, s := range d.Seqs {
		c := d.Y[i]
		hits := 0
		for _, tok := range s {
			if tok%5 == c%5 && tok < 15 { // keyword region for class c
				hits++
			}
		}
		frac := float64(hits) / float64(len(s))
		if c == 0 {
			inClass += frac
			inN++
		} else {
			outClass += frac
			outN++
		}
	}
	_ = outClass
	_ = inClass
	// Weak check: class-0 sequences contain token 0 more often than
	// class-1 sequences do.
	count := func(class, token int) float64 {
		hits, total := 0, 0
		for i, s := range d.Seqs {
			if d.Y[i] != class {
				continue
			}
			total += len(s)
			for _, tok := range s {
				if tok == token {
					hits++
				}
			}
		}
		return float64(hits) / float64(total)
	}
	if count(0, 0) <= count(1, 0)*2 {
		t.Fatalf("keyword 0 rate in class 0 (%g) not >2x class 1 (%g)", count(0, 0), count(1, 0))
	}
}

func TestDensityAccessor(t *testing.T) {
	d := smallSparse()
	want := float64(d.NNZ()) / float64(500*2000)
	if got := d.Density(); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Density = %g, want %g", got, want)
	}
}
