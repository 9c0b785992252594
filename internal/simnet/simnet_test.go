package simnet

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTransferTimeAlphaBetaModel(t *testing.T) {
	p := Profile{Alpha: 1e-6, BetaPerByte: 1e-9}
	if got := p.TransferTime(0); got != 1e-6 {
		t.Fatalf("zero-byte transfer = %g, want α", got)
	}
	want := 1e-6 + 1000e-9
	if got := p.TransferTime(1000); math.Abs(got-want) > 1e-18 {
		t.Fatalf("transfer(1000) = %g, want %g", got, want)
	}
}

func TestSoftwareOverheadAdds(t *testing.T) {
	base := GigE.TransferTime(1 << 20)
	spark := SparkLike.TransferTime(1 << 20)
	if spark <= base {
		t.Fatal("Spark-like profile must be slower than raw GigE")
	}
	// The paper measures ~12x comm gap dense-MPI vs Spark on GigE for large
	// messages; our per-byte serialization factor should land within 5-20x.
	ratio := spark / base
	if ratio < 5 || ratio > 20 {
		t.Fatalf("spark/gige large-message ratio = %g, want 5–20", ratio)
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"aries", "ib-fdr", "gige", "spark"} {
		p, err := ProfileByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("ProfileByName(%q) = %+v, %v", name, p, err)
		}
	}
	if _, err := ProfileByName("token-ring"); err == nil {
		t.Fatal("expected error for unknown profile")
	}
}

func TestNetworkOrdering(t *testing.T) {
	// For any message size, Aries ≤ IB ≤ GigE ≤ Spark.
	for _, bytes := range []int{0, 64, 4096, 1 << 20, 64 << 20} {
		a, i, g, s := Aries.TransferTime(bytes), InfiniBandFDR.TransferTime(bytes),
			GigE.TransferTime(bytes), SparkLike.TransferTime(bytes)
		if !(a <= i && i <= g && g <= s) {
			t.Fatalf("bytes=%d: ordering violated: %g %g %g %g", bytes, a, i, g, s)
		}
	}
}

func TestClockSemantics(t *testing.T) {
	var c Clock
	c.Advance(2)
	c.Observe(1) // in the past: no-op
	if c.Now() != 2 {
		t.Fatalf("Now = %g, want 2", c.Now())
	}
	c.Observe(5)
	if c.Now() != 5 {
		t.Fatalf("Now = %g, want 5", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestClockPanicsOnNegativeAdvance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

// Property: clocks are monotone under any sequence of Advance/Observe.
func TestQuickClockMonotone(t *testing.T) {
	f := func(steps []float64) bool {
		var c Clock
		prev := 0.0
		for _, s := range steps {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				continue
			}
			if s >= 0 {
				c.Advance(s)
			} else {
				c.Observe(-s)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSparseMergeCostExceedsDense(t *testing.T) {
	for _, p := range []Profile{Aries, InfiniBandFDR, GigE} {
		if p.SparseMergeTime(1000) <= p.DenseReduceTime(1000) {
			t.Fatalf("%s: sparse merge must cost more per element than dense add", p.Name)
		}
	}
}

func TestDeviceComputeTime(t *testing.T) {
	if got := GPUP100.ComputeTime(8e12); math.Abs(got-1) > 1e-12 {
		t.Fatalf("P100 8TFLOP = %gs, want 1s", got)
	}
	if GPUV100.ComputeTime(1e12) >= GPUK80.ComputeTime(1e12) {
		t.Fatal("V100 must be faster than K80")
	}
}

func TestNVLinkLikeProfile(t *testing.T) {
	p, err := ProfileByName("nvlink")
	if err != nil {
		t.Fatal(err)
	}
	if p.Alpha >= Aries.Alpha || p.BetaPerByte >= Aries.BetaPerByte {
		t.Fatal("nvlink must be strictly cheaper than aries in both α and β")
	}
}

func TestContendedTransferTime(t *testing.T) {
	p := Profile{Name: "x", Alpha: 1e-6, BetaPerByte: 1e-9, SoftwareOverhead: 1e-7, SoftwarePerByte: 1e-10}
	bytes := 1000
	want := p.Alpha + p.SoftwareOverhead + (p.BetaPerByte+p.SoftwarePerByte)*float64(bytes)*3
	if got := p.ContendedTransferTime(bytes, 3); got != want {
		t.Fatalf("ContendedTransferTime = %g, want %g", got, want)
	}
	if got, want := p.ContendedTransferTime(bytes, 1), p.TransferTime(bytes); got != want {
		t.Fatalf("factor-1 contended time %g != TransferTime %g", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("factor < 1 should panic")
		}
	}()
	p.ContendedTransferTime(bytes, 0.5)
}
