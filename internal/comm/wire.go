package comm

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"

	"repro/internal/quant"
	"repro/internal/stream"
)

// Payload codec: the serialization layer of the real transports. The
// simulator hands payloads over by reference, but the goroutine backend
// deep-copies every message through this codec (so sender and receiver
// never share storage and the copy costs real per-byte work) and the TCP
// backend frames exactly these bytes onto sockets.
//
// Every payload type a collective sends is supported: nil (barriers),
// dense slices and their allgather containers, sparse stream vectors and
// lists of them (reconstructed field-exact via stream.AppendWire/
// DecodeWire, which is what keeps results bit-identical across
// transports), and quantized vectors (quant.AppendMarshal/Unmarshal).
// Packages with private payload types extend the codec with
// RegisterPayloadCodec.
//
// Wire form (little endian): one type-id byte followed by a type-specific
// body. A message frame carries exactly one payload, so decoders consume
// the whole buffer. payloadSize gives the exact encoded length of every
// built-in type, so a sender encodes each message once into a buffer of
// exactly that size. The bytes may come from another process, so every
// decoded element count is checked against the bytes remaining before
// anything is allocated from it.

// Payload type ids.
const (
	wireNil        byte = 0
	wireFloats     byte = 1 // []float64
	wireFloatss    byte = 2 // [][]float64 (nil inner slices preserved)
	wireFloatMap   byte = 3 // map[int][]float64
	wireVector     byte = 4 // *stream.Vector
	wireQuantized  byte = 5 // *quant.Quantized
	wireQuantSlice byte = 6 // []*quant.Quantized (nil entries preserved)
	wireQuantMap   byte = 7 // map[int]*quant.Quantized
	wireInt        byte = 8
	wireFloat      byte = 9
	wireString     byte = 10
	wireBytes      byte = 11
	wireRegistered byte = 12 // name-tagged type from RegisterPayloadCodec
	wireVectorNil  byte = 13 // typed nil *stream.Vector
	wireQuantNil   byte = 14 // typed nil *quant.Quantized
	wireVectors    byte = 15 // []*stream.Vector (no nil entries)
)

// minVectorWire is the shortest stream vector encoding (an empty sparse
// vector's header), the per-entry lower bound of a wireVectors count.
var minVectorWire = stream.Zero(1, stream.OpSum).WireSize()

// PayloadCodec serializes one application payload type for the real
// transports. Append writes v's body to buf and returns the extended
// slice; Decode reverses it from exactly the bytes Append produced.
// Decode must reconstruct the value deeply — the result must share no
// mutable storage with the encoded original.
type PayloadCodec struct {
	// Type is the concrete dynamic type the codec handles.
	Type reflect.Type
	// Append serializes a value of Type.
	Append func(buf []byte, v any) []byte
	// Decode parses a value of Type from its full body.
	Decode func(data []byte) (any, error)
}

var (
	payloadMu     sync.RWMutex
	payloadByType = map[reflect.Type]string{}
	payloadCodecs = map[string]PayloadCodec{}
)

// RegisterPayloadCodec extends the real transports' payload codec with a
// package-private type (for example core's dense allgather block slices).
// The name tags the type on the wire and must be unique; register from an
// init function so every process of a multi-process world agrees on the
// tag before any message flows.
func RegisterPayloadCodec(name string, c PayloadCodec) {
	payloadMu.Lock()
	defer payloadMu.Unlock()
	if _, dup := payloadCodecs[name]; dup {
		panic(fmt.Sprintf("comm: payload codec %q registered twice", name))
	}
	payloadCodecs[name] = c
	payloadByType[c.Type] = name
}

// copyPayload round-trips a payload through the codec, producing a deep
// copy that shares no storage with the original — the goroutine
// transport's per-message handover: one encode into a buffer of the exact
// size, one decode out of it.
func copyPayload(v any) (any, error) {
	buf, err := appendPayload(make([]byte, 0, payloadSize(v)), v)
	if err != nil {
		return nil, err
	}
	return decodePayload(buf)
}

// payloadSize returns the length appendPayload appends for v. It is exact
// for every built-in payload type and 0 for a registered type, whose
// codec has no size function.
func payloadSize(v any) int {
	switch x := v.(type) {
	case nil:
		return 1
	case []float64:
		return 1 + floatsSize(x)
	case [][]float64:
		n := 1 + 4 + len(x)
		for _, inner := range x {
			if inner != nil {
				n += floatsSize(inner)
			}
		}
		return n
	case map[int][]float64:
		n := 1 + 4
		for _, xs := range x {
			n += 8 + floatsSize(xs)
		}
		return n
	case *stream.Vector:
		if x == nil {
			return 1
		}
		return 1 + x.WireSize()
	case []*stream.Vector:
		n := 1 + 4
		for _, v := range x {
			if v != nil {
				n += v.WireSize()
			}
		}
		return n
	case *quant.Quantized:
		if x == nil {
			return 1
		}
		return 1 + 4 + x.MarshalSize()
	case []*quant.Quantized:
		n := 1 + 4 + len(x)
		for _, q := range x {
			if q != nil {
				n += 4 + q.MarshalSize()
			}
		}
		return n
	case map[int]*quant.Quantized:
		n := 1 + 4
		for _, q := range x {
			n += 8 + 4 + q.MarshalSize()
		}
		return n
	case int, float64:
		return 1 + 8
	case string:
		return 1 + 4 + len(x)
	case []byte:
		return 1 + 4 + len(x)
	default:
		return 0 // registered type: the buffer grows by append
	}
}

// appendPayload serializes one payload (type id + body) onto buf.
func appendPayload(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, wireNil), nil
	case []float64:
		buf = append(buf, wireFloats)
		return appendFloats(buf, x), nil
	case [][]float64:
		buf = append(buf, wireFloatss)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		for _, inner := range x {
			if inner == nil {
				buf = append(buf, 0)
				continue
			}
			buf = append(buf, 1)
			buf = appendFloats(buf, inner)
		}
		return buf, nil
	case map[int][]float64:
		buf = append(buf, wireFloatMap)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		for _, k := range sortedKeys(x) {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(k)))
			buf = appendFloats(buf, x[k])
		}
		return buf, nil
	case *stream.Vector:
		if x == nil {
			return append(buf, wireVectorNil), nil
		}
		buf = append(buf, wireVector)
		return x.AppendWire(buf), nil
	case []*stream.Vector:
		buf = append(buf, wireVectors)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		for _, v := range x {
			if v == nil {
				return nil, fmt.Errorf("comm: nil entry in a []*stream.Vector payload")
			}
			buf = v.AppendWire(buf)
		}
		return buf, nil
	case *quant.Quantized:
		if x == nil {
			return append(buf, wireQuantNil), nil
		}
		buf = append(buf, wireQuantized)
		return appendQuant(buf, x), nil
	case []*quant.Quantized:
		buf = append(buf, wireQuantSlice)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		for _, q := range x {
			if q == nil {
				buf = append(buf, 0)
				continue
			}
			buf = append(buf, 1)
			buf = appendQuant(buf, q)
		}
		return buf, nil
	case map[int]*quant.Quantized:
		buf = append(buf, wireQuantMap)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		for _, k := range sortedKeys(x) {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(k)))
			buf = appendQuant(buf, x[k])
		}
		return buf, nil
	case int:
		buf = append(buf, wireInt)
		return binary.LittleEndian.AppendUint64(buf, uint64(int64(x))), nil
	case float64:
		buf = append(buf, wireFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x)), nil
	case string:
		buf = append(buf, wireString)
		return appendSized(buf, []byte(x)), nil
	case []byte:
		buf = append(buf, wireBytes)
		return appendSized(buf, x), nil
	default:
		payloadMu.RLock()
		name, ok := payloadByType[reflect.TypeOf(v)]
		var c PayloadCodec
		if ok {
			c = payloadCodecs[name]
		}
		payloadMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("comm: no payload codec for %T (see RegisterPayloadCodec)", v)
		}
		buf = append(buf, wireRegistered)
		buf = appendSized(buf, []byte(name))
		// Reserve the body's length prefix and encode in place.
		at := len(buf)
		buf = c.Append(append(buf, 0, 0, 0, 0), v)
		binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
		return buf, nil
	}
}

// decodePayload reverses appendPayload, consuming the whole buffer.
func decodePayload(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("comm: empty payload frame")
	}
	id, body := data[0], data[1:]
	switch id {
	case wireNil:
		return nil, checkDrained(body, 0)
	case wireVectorNil:
		return (*stream.Vector)(nil), checkDrained(body, 0)
	case wireQuantNil:
		return (*quant.Quantized)(nil), checkDrained(body, 0)
	case wireFloats:
		xs, n, err := decodeFloats(body)
		if err != nil {
			return nil, err
		}
		return xs, checkDrained(body, n)
	case wireFloatss:
		count, err := readCount(body, 1)
		if err != nil {
			return nil, err
		}
		off := 4
		out := make([][]float64, count)
		for i := 0; i < count; i++ {
			if off >= len(body) {
				return nil, errTruncated
			}
			present := body[off]
			off++
			if present == 0 {
				continue
			}
			xs, n, err := decodeFloats(body[off:])
			if err != nil {
				return nil, err
			}
			out[i] = xs
			off += n
		}
		return out, checkDrained(body, off)
	case wireFloatMap:
		count, err := readCount(body, 8+4)
		if err != nil {
			return nil, err
		}
		off := 4
		out := make(map[int][]float64, count)
		for i := 0; i < count; i++ {
			if off+8 > len(body) {
				return nil, errTruncated
			}
			k := int(int64(binary.LittleEndian.Uint64(body[off:])))
			off += 8
			xs, n, err := decodeFloats(body[off:])
			if err != nil {
				return nil, err
			}
			out[k] = xs
			off += n
		}
		return out, checkDrained(body, off)
	case wireVector:
		v, n, err := stream.DecodeWire(body)
		if err != nil {
			return nil, err
		}
		return v, checkDrained(body, n)
	case wireVectors:
		count, err := readCount(body, minVectorWire)
		if err != nil {
			return nil, err
		}
		off := 4
		out := make([]*stream.Vector, count)
		for i := range out {
			v, n, err := stream.DecodeWire(body[off:])
			if err != nil {
				return nil, err
			}
			out[i] = v
			off += n
		}
		return out, checkDrained(body, off)
	case wireQuantized:
		b, n, err := readSized(body)
		if err != nil {
			return nil, err
		}
		q, err := quant.Unmarshal(b)
		if err != nil {
			return nil, err
		}
		return q, checkDrained(body, n)
	case wireQuantSlice:
		count, err := readCount(body, 1)
		if err != nil {
			return nil, err
		}
		off := 4
		out := make([]*quant.Quantized, count)
		for i := 0; i < count; i++ {
			if off >= len(body) {
				return nil, errTruncated
			}
			present := body[off]
			off++
			if present == 0 {
				continue
			}
			b, n, err := readSized(body[off:])
			if err != nil {
				return nil, err
			}
			q, err := quant.Unmarshal(b)
			if err != nil {
				return nil, err
			}
			out[i] = q
			off += n
		}
		return out, checkDrained(body, off)
	case wireQuantMap:
		count, err := readCount(body, 8+4)
		if err != nil {
			return nil, err
		}
		off := 4
		out := make(map[int]*quant.Quantized, count)
		for i := 0; i < count; i++ {
			if off+8 > len(body) {
				return nil, errTruncated
			}
			k := int(int64(binary.LittleEndian.Uint64(body[off:])))
			off += 8
			b, n, err := readSized(body[off:])
			if err != nil {
				return nil, err
			}
			q, err := quant.Unmarshal(b)
			if err != nil {
				return nil, err
			}
			out[k] = q
			off += n
		}
		return out, checkDrained(body, off)
	case wireInt:
		if len(body) != 8 {
			return nil, errTruncated
		}
		return int(int64(binary.LittleEndian.Uint64(body))), nil
	case wireFloat:
		if len(body) != 8 {
			return nil, errTruncated
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(body)), nil
	case wireString:
		b, n, err := readSized(body)
		if err != nil {
			return nil, err
		}
		return string(b), checkDrained(body, n)
	case wireBytes:
		b, n, err := readSized(body)
		if err != nil {
			return nil, err
		}
		return append([]byte(nil), b...), checkDrained(body, n)
	case wireRegistered:
		nameB, n, err := readSized(body)
		if err != nil {
			return nil, err
		}
		codecBody, m, err := readSized(body[n:])
		if err != nil {
			return nil, err
		}
		payloadMu.RLock()
		c, ok := payloadCodecs[string(nameB)]
		payloadMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("comm: unknown payload codec %q", nameB)
		}
		v, err := c.Decode(codecBody)
		if err != nil {
			return nil, err
		}
		return v, checkDrained(body, n+m)
	default:
		return nil, fmt.Errorf("comm: unknown payload type id %d", id)
	}
}

var errTruncated = fmt.Errorf("comm: truncated payload frame")

// checkDrained rejects trailing garbage after a decoded payload.
func checkDrained(body []byte, consumed int) error {
	if consumed != len(body) {
		return fmt.Errorf("comm: payload frame has %d trailing bytes", len(body)-consumed)
	}
	return nil
}

// readCount reads the uint32 element count at the front of body and
// rejects it unless the rest of body could hold that many elements of at
// least minBytes each — the check that keeps a corrupt or hostile frame
// from sizing an allocation.
func readCount(body []byte, minBytes int) (int, error) {
	if len(body) < 4 {
		return 0, errTruncated
	}
	count := int(binary.LittleEndian.Uint32(body))
	if count > (len(body)-4)/minBytes {
		return 0, errTruncated
	}
	return count, nil
}

// floatsSize is the length appendFloats appends for xs.
func floatsSize(xs []float64) int { return 4 + 8*len(xs) }

// appendQuant writes a length-prefixed quantized vector.
func appendQuant(buf []byte, q *quant.Quantized) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(q.MarshalSize()))
	return q.AppendMarshal(buf)
}

// appendFloats writes a length-prefixed float64 slice.
func appendFloats(buf []byte, xs []float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(xs)))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// decodeFloats reads a length-prefixed float64 slice, returning it and the
// bytes consumed.
func decodeFloats(data []byte) ([]float64, int, error) {
	if len(data) < 4 {
		return nil, 0, errTruncated
	}
	count := int(binary.LittleEndian.Uint32(data))
	size := 4 + 8*count
	if count < 0 || len(data) < size {
		return nil, 0, errTruncated
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[4+8*i:]))
	}
	return out, size, nil
}

// appendSized writes a length-prefixed byte block.
func appendSized(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// readSized reads a length-prefixed byte block (aliasing data), returning
// it and the bytes consumed.
func readSized(data []byte) ([]byte, int, error) {
	if len(data) < 4 {
		return nil, 0, errTruncated
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 0 || len(data) < 4+n {
		return nil, 0, errTruncated
	}
	return data[4 : 4+n], 4 + n, nil
}

// sortedKeys returns m's keys ascending — map payloads must encode
// deterministically so both real backends produce identical frames.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
