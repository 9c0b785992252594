package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"

	"repro/internal/comm"
)

// block is a contiguous reduced range exchanged by Rabenseifner's
// recursive-doubling allgather: the range's start offset plus its values.
// It is package-level (rather than local to AllreduceRabenseifner) so the
// real transports' payload codec can name it.
type block struct {
	lo  int
	val []float64
}

// The real transports serialize every payload; core's one private payload
// type registers its codec here. The wire form is a uint32 block count,
// then per block a uint64 offset, a uint32 length, and the raw float64
// bits (little endian).
func init() {
	comm.RegisterPayloadCodec("core.blocks", comm.PayloadCodec{
		Type:   reflect.TypeOf([]block(nil)),
		Append: appendBlocks,
		Decode: decodeBlocks,
	})
}

// appendBlocks is the core.blocks codec's encoder.
func appendBlocks(buf []byte, v any) []byte {
	blocks := v.([]block)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blocks)))
	for _, b := range blocks {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(b.lo)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.val)))
		for _, x := range b.val {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	}
	return buf
}

// decodeBlocks is the core.blocks codec's decoder.
func decodeBlocks(data []byte) (any, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("core: truncated block frame")
	}
	// Every block takes at least its 12-byte offset+length header:
	// bound the count by the bytes present before allocating.
	count := int(binary.LittleEndian.Uint32(data))
	if count > (len(data)-4)/12 {
		return nil, fmt.Errorf("core: truncated block frame")
	}
	off := 4
	out := make([]block, count)
	for i := 0; i < count; i++ {
		if off+12 > len(data) {
			return nil, fmt.Errorf("core: truncated block frame")
		}
		lo := int(int64(binary.LittleEndian.Uint64(data[off:])))
		n := int(binary.LittleEndian.Uint32(data[off+8:]))
		off += 12
		if n < 0 || off+8*n > len(data) {
			return nil, fmt.Errorf("core: truncated block frame")
		}
		val := make([]float64, n)
		for j := range val {
			val[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+8*j:]))
		}
		out[i] = block{lo: lo, val: val}
		off += 8 * n
	}
	if off != len(data) {
		return nil, fmt.Errorf("core: block frame has trailing bytes")
	}
	return out, nil
}
