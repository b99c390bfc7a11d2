package mpi

import (
	"bytes"
	"math"
	"testing"
)

// FuzzFrameRoundTrip checks the frame codec's central identity: every
// frame kind survives encode → readFrame → decode bit-exactly. Floats
// are compared by bit pattern so NaN payloads and signed zeros count.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(0), int32(0), uint64(0), []byte(nil))
	f.Add(uint32(1), int32(7), uint64(3), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add(uint32(9), int32(-2), uint64(1<<40), bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, epoch uint32, tag int32, seq uint64, raw []byte) {
		// raw supplies the payload as bit patterns, 8 bytes per value.
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			var bits uint64
			for j := 0; j < 8; j++ {
				bits |= uint64(raw[8*i+j]) << (8 * j)
			}
			vals[i] = math.Float64frombits(bits)
		}

		enc := encodeDataFrame(epoch, int(tag), seq, vals)
		body, err := readFrame(bytes.NewReader(enc), nil)
		if err != nil {
			t.Fatalf("readFrame(encodeDataFrame): %v", err)
		}
		df, err := decodeDataFrame(body)
		if err != nil {
			t.Fatalf("decodeDataFrame: %v", err)
		}
		if df.epoch != epoch || df.tag != int(tag) || df.seq != seq || len(df.data) != len(vals) {
			t.Fatalf("data frame header mismatch: %+v", df)
		}
		for i := range vals {
			if math.Float64bits(df.data[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d: %x != %x", i, math.Float64bits(df.data[i]), math.Float64bits(vals[i]))
			}
		}

		// readLoop reads every frame of a connection into one buffer: the
		// payload decoded from it must survive the next frame's read.
		r := bytes.NewReader(append(append([]byte(nil), enc...), encodeHeartbeatFrame(^seq, true)...))
		if body, err = readFrame(r, nil); err != nil {
			t.Fatalf("readFrame, first of two: %v", err)
		}
		df, _ = decodeDataFrame(body)
		if body, err = readFrame(r, body); err != nil || body[0] != frameHeartbeat {
			t.Fatalf("readFrame into the reused buffer: %v", err)
		}
		for i := range vals {
			if math.Float64bits(df.data[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("value %d changed when the buffer was reused", i)
			}
		}

		src, dst := int(tag), int(int32(epoch))
		hs, hd, err := decodeHelloFrame(mustReadFrame(t, encodeHelloFrame(src, dst)))
		if err != nil || hs != src || hd != dst {
			t.Fatalf("hello round trip: (%d, %d, %v)", hs, hd, err)
		}

		counts := map[int]uint64{int(tag): seq, int(tag) + 1: uint64(epoch)}
		got, err := decodeWelcomeFrame(mustReadFrame(t, encodeWelcomeFrame(counts)))
		if err != nil || len(got) != len(counts) {
			t.Fatalf("welcome round trip: %v, %v", got, err)
		}
		for k, v := range counts {
			if got[k] != v {
				t.Fatalf("welcome count[%d] = %d, want %d", k, got[k], v)
			}
		}

		busy := seq%2 == 1
		prog, gbusy, err := decodeHeartbeatFrame(mustReadFrame(t, encodeHeartbeatFrame(seq, busy)))
		if err != nil || prog != seq || gbusy != busy {
			t.Fatalf("heartbeat round trip: (%d, %v, %v)", prog, gbusy, err)
		}
	})
}

func mustReadFrame(t *testing.T, enc []byte) []byte {
	t.Helper()
	body, err := readFrame(bytes.NewReader(enc), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return body
}

// FuzzFrameCorruption feeds arbitrary bytes — and single-byte
// corruptions of valid frames — through readFrame and every decoder.
// The contract under attack: corrupt input must produce an error or a
// bounded, well-formed result, never a panic or an allocation larger
// than the frame that carried it. This is the target that catches the
// uint32-wraparound class in the length checks (8*nvals and 12*n
// overflowing to pass validation against a short body).
func FuzzFrameCorruption(f *testing.F) {
	f.Add([]byte{}, 0, byte(0))
	f.Add(encodeDataFrame(1, 2, 3, []float64{4, 5}), 7, byte(0x80))
	f.Add(encodeWelcomeFrame(map[int]uint64{1: 2}), 9, byte(0xff))
	f.Add(encodeHelloFrame(1, 2), 4, byte(1))
	f.Add(encodeHeartbeatFrame(77, true), 5, byte(0x10))
	f.Add(encodeDataFrame(2, 0, 9, nil), 21, byte(0x01)) // empty payload, as a barrier sends: nvals 0 → 1
	// Seeds reproducing the wraparound bugs directly: n = 715827883
	// makes 12*n ≡ 4 (mod 2^32); nvals = 536870912 makes 8*nvals ≡ 0.
	f.Add([]byte{9, 0, 0, 0, 3, 0xab, 0xaa, 0xaa, 0x2a, 1, 2, 3, 4}, 0, byte(0))                             // welcome, 4-byte body after count
	f.Add([]byte{21, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x20}, 0, byte(0)) // data, nvals = 2^29
	f.Fuzz(func(t *testing.T, raw []byte, pos int, flip byte) {
		// Flip one byte (fuzz-chosen position and mask) to model
		// corruption of an otherwise valid frame; raw may also already be
		// arbitrary garbage.
		buf := append([]byte(nil), raw...)
		if len(buf) > 0 {
			buf[abs(pos)%len(buf)] ^= flip
		}

		body, err := readFrame(bytes.NewReader(buf), nil)
		if err != nil {
			return // rejected at the framing layer: fine
		}
		if len(body) == 0 || len(body) > maxFrameBody {
			t.Fatalf("readFrame returned out-of-range body (%d bytes)", len(body))
		}
		if df, err := decodeDataFrame(body); err == nil {
			if 8*len(df.data) > len(body) {
				t.Fatalf("decodeDataFrame produced %d values from a %d-byte body", len(df.data), len(body))
			}
		}
		if counts, err := decodeWelcomeFrame(body); err == nil {
			if 12*len(counts) > len(body) {
				t.Fatalf("decodeWelcomeFrame produced %d streams from a %d-byte body", len(counts), len(body))
			}
		}
		_, _, _ = decodeHelloFrame(body)
		_, _, _ = decodeHeartbeatFrame(body)
	})
}

func abs(v int) int {
	if v < 0 {
		if v == -v { // math.MinInt
			return 0
		}
		return -v
	}
	return v
}
