// Package quant implements the QSGD stochastic quantization scheme used by
// SparCML for low-precision communication (paper §6): a dense vector is
// split into buckets of B consecutive entries, each bucket is quantized
// independently and stochastically to a small number of levels (2, 4, or 8
// bits per entry), and each bucket carries one full-precision scaling
// factor. Quantization is unbiased (E[decode] = input), which is what
// preserves SGD convergence (Alistarh et al., QSGD).
package quant

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Norm selects the per-bucket scaling factor.
type Norm int

const (
	// NormMax scales by the bucket's max |value|; every input is then within
	// [-scale, +scale], so stochastic rounding is exactly unbiased.
	NormMax Norm = iota
	// NormL2 scales by the bucket's Euclidean norm, as in the original QSGD
	// paper; yields more aggressive variance bounds for dense gradients.
	NormL2
)

func (n Norm) String() string {
	if n == NormL2 {
		return "L2"
	}
	return "max"
}

// Config describes a quantizer.
type Config struct {
	// Bits per entry: 2, 4, or 8 (§6).
	Bits int
	// Bucket is the number of consecutive entries sharing one scaling
	// factor; the paper uses "in the order of 1024" (1024 for collectives,
	// 512 for the DNN experiments).
	Bucket int
	// Norm selects the scaling factor; default NormMax.
	Norm Norm
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch c.Bits {
	case 2, 4, 8:
	default:
		return fmt.Errorf("quant: bits must be 2, 4, or 8 (got %d)", c.Bits)
	}
	if c.Bucket <= 0 {
		return fmt.Errorf("quant: bucket must be positive (got %d)", c.Bucket)
	}
	return nil
}

// Levels returns the number of positive quantization levels L: codes lie in
// [-L, +L]. One bit encodes the sign, the rest the magnitude.
func (c Config) Levels() int { return 1<<(c.Bits-1) - 1 }

// Quantized is a quantized vector: packed signed level codes plus one
// float32 scale per bucket. (The paper sends a "full-precision scaling
// factor"; we use float32 on the wire, which is full precision relative to
// 2–8 bit payloads and matches common QSGD implementations.)
type Quantized struct {
	cfg    Config
	n      int
	scales []float32
	packed []byte // n codes, cfg.Bits each, little-endian within bytes
}

// Encode stochastically quantizes v. The rng drives the stochastic
// rounding; passing the same seed reproduces the encoding bit-for-bit.
func Encode(v []float64, cfg Config, rng *rand.Rand) *Quantized {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	L := float64(cfg.Levels())
	nb := (len(v) + cfg.Bucket - 1) / cfg.Bucket
	q := &Quantized{
		cfg:    cfg,
		n:      len(v),
		scales: make([]float32, nb),
		packed: make([]byte, (len(v)*cfg.Bits+7)/8),
	}
	for b := 0; b < nb; b++ {
		lo := b * cfg.Bucket
		hi := lo + cfg.Bucket
		if hi > len(v) {
			hi = len(v)
		}
		scale := bucketScale(v[lo:hi], cfg.Norm)
		q.scales[b] = float32(scale)
		if scale == 0 {
			continue // all codes stay 0
		}
		for i := lo; i < hi; i++ {
			x := v[i] / scale * L // in [-L, L] for NormMax
			f := math.Floor(x)
			code := int(f)
			if rng.Float64() < x-f {
				code++
			}
			// NormL2 can put |x| above L for outlier coordinates; clamp.
			if code > int(L) {
				code = int(L)
			} else if code < -int(L) {
				code = -int(L)
			}
			q.put(i, code)
		}
	}
	return q
}

func bucketScale(v []float64, norm Norm) float64 {
	switch norm {
	case NormL2:
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		return math.Sqrt(s)
	default:
		s := 0.0
		for _, x := range v {
			if a := math.Abs(x); a > s {
				s = a
			}
		}
		return s
	}
}

// put stores the signed code for entry i.
func (q *Quantized) put(i, code int) {
	u := uint(code + q.cfg.Levels()) // bias to unsigned
	bitPos := i * q.cfg.Bits
	byteIdx := bitPos / 8
	shift := uint(bitPos % 8)
	q.packed[byteIdx] |= byte(u << shift)
	if shift+uint(q.cfg.Bits) > 8 {
		q.packed[byteIdx+1] |= byte(u >> (8 - shift))
	}
}

// code retrieves the signed code for entry i.
func (q *Quantized) code(i int) int {
	bitPos := i * q.cfg.Bits
	byteIdx := bitPos / 8
	shift := uint(bitPos % 8)
	u := uint(q.packed[byteIdx] >> shift)
	if shift+uint(q.cfg.Bits) > 8 {
		u |= uint(q.packed[byteIdx+1]) << (8 - shift)
	}
	u &= (1 << q.cfg.Bits) - 1
	return int(u) - q.cfg.Levels()
}

// Dim returns the vector dimension.
func (q *Quantized) Dim() int { return q.n }

// Config returns the quantizer configuration.
func (q *Quantized) Config() Config { return q.cfg }

// Decode reconstructs the (lossy) vector.
func (q *Quantized) Decode() []float64 {
	out := make([]float64, q.n)
	L := float64(q.cfg.Levels())
	for i := range out {
		b := i / q.cfg.Bucket
		out[i] = float64(q.scales[b]) * float64(q.code(i)) / L
	}
	return out
}

// WireBytes returns the transmitted size: packed codes plus one float32
// scale per bucket, plus a 5-byte header (format flag + count), matching
// the stream header convention.
func (q *Quantized) WireBytes() int {
	return 5 + len(q.packed) + 4*len(q.scales)
}

// CompressionRatio returns dense float64 bytes divided by quantized bytes.
func (q *Quantized) CompressionRatio() float64 {
	return float64(8*q.n) / float64(q.WireBytes())
}

// MarshalSize returns the exact length AppendMarshal appends.
func (q *Quantized) MarshalSize() int {
	return 10 + 4*len(q.scales) + len(q.packed)
}

// AppendMarshal appends the serialized quantized vector to buf and
// returns the extended slice.
func (q *Quantized) AppendMarshal(buf []byte) []byte {
	var hdr [10]byte
	hdr[0] = byte(q.cfg.Bits)
	hdr[1] = byte(q.cfg.Norm)
	binary.LittleEndian.PutUint32(hdr[2:], uint32(q.cfg.Bucket))
	binary.LittleEndian.PutUint32(hdr[6:], uint32(q.n))
	buf = append(buf, hdr[:]...)
	for _, s := range q.scales {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(s))
	}
	return append(buf, q.packed...)
}

// Unmarshal reverses AppendMarshal.
func Unmarshal(buf []byte) (*Quantized, error) {
	if len(buf) < 10 {
		return nil, fmt.Errorf("quant: short buffer")
	}
	cfg := Config{
		Bits:   int(buf[0]),
		Norm:   Norm(buf[1]),
		Bucket: int(binary.LittleEndian.Uint32(buf[2:])),
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(buf[6:]))
	nb := (n + cfg.Bucket - 1) / cfg.Bucket
	packedLen := (n*cfg.Bits + 7) / 8
	if len(buf) != 10+4*nb+packedLen {
		return nil, fmt.Errorf("quant: buffer is %d bytes, want %d", len(buf), 10+4*nb+packedLen)
	}
	q := &Quantized{cfg: cfg, n: n, scales: make([]float32, nb)}
	off := 10
	for i := range q.scales {
		q.scales[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	q.packed = append([]byte(nil), buf[off:]...)
	return q, nil
}
