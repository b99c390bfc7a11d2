package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Wire framing for the TCP transport. Every frame is a 4-byte
// little-endian length prefix (byte count of what follows), a one-byte
// kind, and a kind-specific body:
//
//	data      u32 epoch · i32 tag · u64 seq · u32 nvals · nvals × f64
//	hello     i32 src · i32 dst                       (dialer → accepter, once per connect)
//	welcome   u32 n · n × (i32 tag · u64 count)       (accepter → dialer reply: frames accepted per stream)
//	heartbeat u64 progress · u8 busy                  (liveness for the cross-process watchdog)
//
// hello fixes the (src, dst) link for the connection, so a data frame
// carries a 21-byte envelope. seq numbers a (src, dst, tag) stream's data
// frames from 0 — the resume protocol's coordinate (protocol.go) — and a
// data frame's epoch lets the reader drop frames from before a Reset.
const (
	frameData      byte = 1
	frameHello     byte = 2
	frameWelcome   byte = 3
	frameHeartbeat byte = 4
)

// maxFrameBody bounds a frame body read from the network (64 MiB —
// far above any tile halo, small enough to fail fast on corruption).
const maxFrameBody = 64 << 20

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendI32(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(int32(v)))
}

// encodeDataFrame builds a complete data frame (length prefix included).
func encodeDataFrame(epoch uint32, tag int, seq uint64, data []float64) []byte {
	body := 1 + 4 + 4 + 8 + 4 + 8*len(data)
	b := make([]byte, 0, 4+body)
	b = appendU32(b, uint32(body))
	b = append(b, frameData)
	b = appendU32(b, epoch)
	b = appendI32(b, tag)
	b = appendU64(b, seq)
	b = appendU32(b, uint32(len(data)))
	for _, v := range data {
		b = appendU64(b, math.Float64bits(v))
	}
	return b
}

func encodeHelloFrame(src, dst int) []byte {
	b := make([]byte, 0, 4+9)
	b = appendU32(b, 9)
	b = append(b, frameHello)
	b = appendI32(b, src)
	b = appendI32(b, dst)
	return b
}

func encodeWelcomeFrame(counts map[int]uint64) []byte {
	body := 1 + 4 + 12*len(counts)
	b := make([]byte, 0, 4+body)
	b = appendU32(b, uint32(body))
	b = append(b, frameWelcome)
	b = appendU32(b, uint32(len(counts)))
	for tag, n := range counts {
		b = appendI32(b, tag)
		b = appendU64(b, n)
	}
	return b
}

func encodeHeartbeatFrame(progress uint64, busy bool) []byte {
	b := make([]byte, 0, 4+10)
	b = appendU32(b, 10)
	b = append(b, frameHeartbeat)
	b = appendU64(b, progress)
	if busy {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

// readFrame reads one complete frame body (kind byte first) from r into
// buf, grown if the frame does not fit. The body aliases buf, so a reader
// that passes it back in reads every frame into one buffer.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4, 256)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > maxFrameBody {
		return nil, fmt.Errorf("mpi: frame body length %d out of range", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

type dataFrame struct {
	epoch uint32
	tag   int
	seq   uint64
	data  []float64
}

// decodeDataFrame decodes a data frame body into a fresh payload.
func decodeDataFrame(body []byte) (dataFrame, error) {
	var f dataFrame
	if len(body) < 1+4+4+8+4 {
		return f, fmt.Errorf("mpi: short data frame (%d bytes)", len(body))
	}
	b := body[1:]
	f.epoch = binary.LittleEndian.Uint32(b)
	f.tag = int(int32(binary.LittleEndian.Uint32(b[4:])))
	f.seq = binary.LittleEndian.Uint64(b[8:])
	nvals := binary.LittleEndian.Uint32(b[16:])
	b = b[20:]
	// Compare in 64 bits: 8*nvals wraps uint32 for nvals ≥ 2^29, which
	// would let a corrupt header pass the check and drive a giant
	// allocation below.
	if uint64(len(b)) != 8*uint64(nvals) {
		return f, fmt.Errorf("mpi: data frame payload %d bytes, want %d values", len(b), nvals)
	}
	if nvals > 0 {
		f.data = make([]float64, nvals)
		for i := range f.data {
			f.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return f, nil
}

func decodeHelloFrame(body []byte) (src, dst int, err error) {
	if len(body) != 9 {
		return 0, 0, fmt.Errorf("mpi: hello frame %d bytes, want 9", len(body))
	}
	src = int(int32(binary.LittleEndian.Uint32(body[1:])))
	dst = int(int32(binary.LittleEndian.Uint32(body[5:])))
	return src, dst, nil
}

func decodeWelcomeFrame(body []byte) (map[int]uint64, error) {
	if len(body) < 5 {
		return nil, fmt.Errorf("mpi: short welcome frame (%d bytes)", len(body))
	}
	n := binary.LittleEndian.Uint32(body[1:])
	b := body[5:]
	// Compare in 64 bits: 12*n wraps uint32 for n ≥ 2^28+…, which would
	// let a corrupt header pass the check and index past the body.
	if uint64(len(b)) != 12*uint64(n) {
		return nil, fmt.Errorf("mpi: welcome frame %d bytes for %d streams", len(body), n)
	}
	counts := make(map[int]uint64, n)
	for i := uint32(0); i < n; i++ {
		tag := int(int32(binary.LittleEndian.Uint32(b[12*i:])))
		counts[tag] = binary.LittleEndian.Uint64(b[12*i+4:])
	}
	return counts, nil
}

func decodeHeartbeatFrame(body []byte) (progress uint64, busy bool, err error) {
	if len(body) != 10 {
		return 0, false, fmt.Errorf("mpi: heartbeat frame %d bytes, want 10", len(body))
	}
	return binary.LittleEndian.Uint64(body[1:]), body[9] != 0, nil
}
