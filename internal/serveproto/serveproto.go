// Package serveproto is the binary wire format of the knnserve query
// service: a fixed little-endian framing for batched covering-ball
// requests and their responses, built for two properties the JSON path
// cannot give:
//
//   - Zero-copy-ish decode into caller-owned scratch (DecodeRequestInto
//     reuses the request's flat coordinate arena and row headers, so a
//     warmed serving handler decodes without allocating), and
//
//   - Hardened decoding in the serialize.go discipline: every length is
//     bounds-checked before use, every structural violation is a typed
//     error, and no input byte sequence may panic or provoke an
//     attacker-sized allocation. FuzzServeRequest holds the line.
//
// Request frame (all integers little-endian):
//
//	offset size  field
//	0      4     magic "SPQ1"
//	4      1     version (1)
//	5      1     flags (bit 0: closed-ball membership; rest must be 0)
//	6      2     dim   (uint16, 1..MaxDim)
//	8      4     count (uint32, 0..MaxQueries)
//	12     8*dim*count  coordinates, query-major, float64 bits
//
// The frame must end exactly at the last coordinate: trailing bytes are
// ErrTrailing, a short buffer is ErrTruncated. Coordinates must be
// finite (no NaN/Inf): the serving engine's query contract is enforced
// at the trust boundary, not deep in a coalesced batch where one bad
// query would fail its neighbors' pass.
//
// Response frame:
//
//	offset size  field
//	0      4     magic "SPR1"
//	4      1     version (1)
//	5      1     flags (bit 0 echoes the request's closed bit)
//	6      2     reserved (must be 0)
//	8      8     epoch (uint64: snapshot generation that served it)
//	16     4     count (uint32: result rows, == request count)
//	20     4*count    row lengths (uint32 each)
//	...    4*Σlens    ball ids (uint32 each), row-major, ascending per row
package serveproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Typed decode errors. Everything Decode* returns wraps one of these,
// so callers can map them to protocol-level responses (HTTP 400) while
// keeping the detailed message for logs.
var (
	ErrTruncated = errors.New("serveproto: truncated frame")
	ErrBadMagic  = errors.New("serveproto: bad magic")
	ErrVersion   = errors.New("serveproto: unsupported version")
	ErrBadFlags  = errors.New("serveproto: undefined flag bits")
	ErrBounds    = errors.New("serveproto: field out of bounds")
	ErrTrailing  = errors.New("serveproto: trailing bytes after frame")
	ErrNonFinite = errors.New("serveproto: non-finite coordinate")
	ErrCorrupt   = errors.New("serveproto: corrupt frame")
)

// Frame limits: far above anything the service serves, low enough that
// a hostile header cannot make the decoder allocate gigabytes. The
// server additionally bounds the raw body size before decode.
const (
	MaxDim     = 64
	MaxQueries = 1 << 20
	MaxIDs     = 1 << 28 // response rows total; ids are point indices
)

const (
	reqMagic  = "SPQ1"
	respMagic = "SPR1"
	version   = 1

	reqHeaderLen  = 12
	respHeaderLen = 20

	// FlagClosed selects closed-ball membership (Frozen.CoveringClosed
	// semantics) for every query in the frame.
	FlagClosed = 1 << 0
)

// Request is a decoded query batch. Queries holds one row per query;
// rows are views into Flat, the query-major coordinate arena. Both are
// reused across DecodeRequestInto calls on the same Request.
type Request struct {
	Closed  bool
	Dim     int
	Queries [][]float64
	Flat    []float64
}

// AppendRequest encodes a request frame for queries of dimension dim,
// appending to dst and returning the extended slice. Every query must
// have exactly dim coordinates (it panics otherwise — the encoder is
// for trusted callers; the decoder is the hardened side).
func AppendRequest(dst []byte, queries [][]float64, dim int, closed bool) []byte {
	var flags byte
	if closed {
		flags = FlagClosed
	}
	dst = append(dst, reqMagic...)
	dst = append(dst, version, flags)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(queries)))
	for _, q := range queries {
		if len(q) != dim {
			panic(fmt.Sprintf("serveproto: query has %d coordinates, want %d", len(q), dim))
		}
		for _, x := range q {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
		}
	}
	return dst
}

// DecodeRequest decodes a request frame into a fresh Request.
func DecodeRequest(buf []byte) (*Request, error) {
	var req Request
	if err := DecodeRequestInto(buf, &req); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeRequestInto decodes a request frame into req, reusing req's
// Flat arena and Queries headers when their capacity suffices — the
// zero-allocation steady-state path of the serving handler. On error
// req's contents are unspecified.
func DecodeRequestInto(buf []byte, req *Request) error {
	if len(buf) < reqHeaderLen {
		return fmt.Errorf("%w: %d byte header, need %d", ErrTruncated, len(buf), reqHeaderLen)
	}
	if string(buf[:4]) != reqMagic {
		return fmt.Errorf("%w: % x", ErrBadMagic, buf[:4])
	}
	if buf[4] != version {
		return fmt.Errorf("%w: %d", ErrVersion, buf[4])
	}
	flags := buf[5]
	if flags&^byte(FlagClosed) != 0 {
		return fmt.Errorf("%w: 0x%02x", ErrBadFlags, flags)
	}
	dim := int(binary.LittleEndian.Uint16(buf[6:8]))
	if dim < 1 || dim > MaxDim {
		return fmt.Errorf("%w: dim %d not in [1, %d]", ErrBounds, dim, MaxDim)
	}
	count := int(binary.LittleEndian.Uint32(buf[8:12]))
	if count > MaxQueries {
		return fmt.Errorf("%w: %d queries, max %d", ErrBounds, count, MaxQueries)
	}
	// need = header + 8*dim*count; dim*count <= 64 * 2^20 so no overflow.
	need := reqHeaderLen + 8*dim*count
	if len(buf) < need {
		return fmt.Errorf("%w: %d bytes, frame needs %d", ErrTruncated, len(buf), need)
	}
	if len(buf) > need {
		return fmt.Errorf("%w: %d bytes after %d-byte frame", ErrTrailing, len(buf)-need, need)
	}

	req.Closed = flags&FlagClosed != 0
	req.Dim = dim
	total := dim * count
	if cap(req.Flat) < total {
		req.Flat = make([]float64, total)
	} else {
		req.Flat = req.Flat[:total]
	}
	if cap(req.Queries) < count {
		req.Queries = make([][]float64, count)
	} else {
		req.Queries = req.Queries[:count]
	}
	p := reqHeaderLen
	for i := 0; i < total; i++ {
		x := math.Float64frombits(binary.LittleEndian.Uint64(buf[p : p+8]))
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: query %d coordinate %d", ErrNonFinite, i/dim, i%dim)
		}
		req.Flat[i] = x
		p += 8
	}
	for i := 0; i < count; i++ {
		req.Queries[i] = req.Flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	return nil
}

// Response is a decoded response frame: one ascending id row per query
// of the request it answers, plus the snapshot epoch that served it.
type Response struct {
	Closed bool
	Epoch  uint64
	Rows   [][]uint32
	flat   []uint32
}

// AppendResponse encodes a response frame: rows(i) must return query
// i's ascending ball ids. The callback form lets the server encode
// straight out of the coalescer's arena without materializing [][]int.
func AppendResponse(dst []byte, epoch uint64, closed bool, count int, rows func(i int) []int) []byte {
	var flags byte
	if closed {
		flags = FlagClosed
	}
	dst = append(dst, respMagic...)
	dst = append(dst, version, flags, 0, 0)
	dst = binary.LittleEndian.AppendUint64(dst, epoch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	for i := 0; i < count; i++ {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows(i))))
	}
	for i := 0; i < count; i++ {
		for _, id := range rows(i) {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		}
	}
	return dst
}

// DecodeResponse decodes a response frame. Hardened like the request
// path: the load generator points it at a network peer, and a corrupt
// or hostile peer must produce an error, never a panic.
func DecodeResponse(buf []byte) (*Response, error) {
	if len(buf) < respHeaderLen {
		return nil, fmt.Errorf("%w: %d byte header, need %d", ErrTruncated, len(buf), respHeaderLen)
	}
	if string(buf[:4]) != respMagic {
		return nil, fmt.Errorf("%w: % x", ErrBadMagic, buf[:4])
	}
	if buf[4] != version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, buf[4])
	}
	flags := buf[5]
	if flags&^byte(FlagClosed) != 0 {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadFlags, flags)
	}
	if buf[6] != 0 || buf[7] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved bytes", ErrCorrupt)
	}
	epoch := binary.LittleEndian.Uint64(buf[8:16])
	count := int(binary.LittleEndian.Uint32(buf[16:20]))
	if count > MaxQueries {
		return nil, fmt.Errorf("%w: %d rows, max %d", ErrBounds, count, MaxQueries)
	}
	need := respHeaderLen + 4*count
	if len(buf) < need {
		return nil, fmt.Errorf("%w: %d bytes, row lengths need %d", ErrTruncated, len(buf), need)
	}
	total := 0
	p := respHeaderLen
	lens := make([]int, count)
	for i := 0; i < count; i++ {
		n := int(binary.LittleEndian.Uint32(buf[p : p+4]))
		p += 4
		if n > MaxIDs || total > MaxIDs-n {
			return nil, fmt.Errorf("%w: id total exceeds %d", ErrBounds, MaxIDs)
		}
		lens[i] = n
		total += n
	}
	need += 4 * total
	if len(buf) < need {
		return nil, fmt.Errorf("%w: %d bytes, frame needs %d", ErrTruncated, len(buf), need)
	}
	if len(buf) > need {
		return nil, fmt.Errorf("%w: %d bytes after %d-byte frame", ErrTrailing, len(buf)-need, need)
	}

	resp := &Response{
		Closed: flags&FlagClosed != 0,
		Epoch:  epoch,
		Rows:   make([][]uint32, count),
		flat:   make([]uint32, total),
	}
	for i := range resp.flat {
		resp.flat[i] = binary.LittleEndian.Uint32(buf[p : p+4])
		p += 4
	}
	off := 0
	for i, n := range lens {
		resp.Rows[i] = resp.flat[off : off+n : off+n]
		off += n
	}
	return resp, nil
}
