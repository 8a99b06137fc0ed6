package orb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
)

// allocatedBytes returns the heap bytes f allocates. A background goroutine
// of the test binary can add to one reading, so it keeps the smallest of a
// few and stops early once a reading is within the caller's bound.
func allocatedBytes(bound uint64, f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for try := 0; try < 3 && best > bound; try++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// readAll points fr at r and decodes frames until the reader fails; it
// returns them with the error that ended the stream.
func readAll(fr *frameReader, r io.Reader) ([]message, error) {
	fr.br.Reset(r)
	var msgs []message
	for {
		m, err := fr.readMessage()
		if err != nil {
			return msgs, err
		}
		msgs = append(msgs, m)
	}
}

func sameMessages(a, b []message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || a[i].id != b[i].id || a[i].key != b[i].key ||
			a[i].op != b[i].op || a[i].status != b[i].status || !bytes.Equal(a[i].body, b[i].body) {
			return false
		}
	}
	return true
}

// TestHostileLengthPrefix: four bytes claiming the largest frame cost the
// reader a body chunk, not the 16 MiB they name.
func TestHostileLengthPrefix(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame)
	fr := newFrameReader(bytes.NewReader(nil))
	var err error
	got := allocatedBytes(64<<10, func() {
		fr.br.Reset(bytes.NewReader(hdr[:]))
		_, err = fr.readMessage()
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("header without a body: %v, want io.ErrUnexpectedEOF", err)
	}
	if got > 64<<10 {
		t.Errorf("a 4-byte header claiming %d bytes allocated %d before EOF, want <= 64 KiB", maxFrame, got)
	}
}

// FuzzReadMessage feeds arbitrary bytes to the frame reader as a connection's
// inbound stream, under FuzzDecodePayload's contract: no panic; no more heap
// than a small multiple of the input, whatever lengths it claims (the reader's
// own buffer is per connection and not counted); the frames that decode
// re-encode through appendFrame to exactly the bytes they came from; and the
// same frames come out however the stream is cut into reads.
func FuzzReadMessage(f *testing.F) {
	var stream []byte
	for _, m := range []message{
		{kind: msgRequest, id: 7, key: "obj", op: "do", body: []byte("payload")},
		{kind: msgOneWay, id: 9, key: "eventchannel", op: "push", body: bytes.Repeat([]byte{0xAB}, 150)},
		{kind: msgReply, id: 7, status: statusOK, body: []byte("result")},
		{kind: msgReply, id: 8, status: statusException, body: []byte("err")},
		{kind: msgRequest, id: 1},
	} {
		frame, err := appendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		for i := range frame {
			f.Add(frame[:i])
		}
		stream = append(stream, frame...)
	}
	f.Add(stream)
	for _, claim := range []uint32{0, 8, 9, 64 << 10, maxFrame, maxFrame + 1, math.MaxUint32} {
		hdr := binary.BigEndian.AppendUint32(nil, claim)
		f.Add(hdr)
		f.Add(append(hdr, stream...))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		bound := uint64(16*len(b) + 8192)
		fr := newFrameReader(bytes.NewReader(nil))
		got := allocatedBytes(bound, func() {
			fr.br.Reset(bytes.NewReader(b))
			for {
				if _, err := fr.readMessage(); err != nil {
					return
				}
			}
		})
		if got > bound {
			t.Errorf("reading %d bytes allocated %d bytes, bound %d", len(b), got, bound)
		}

		msgs, err := readAll(fr, bytes.NewReader(b))
		var enc []byte
		for _, m := range msgs {
			var encErr error
			if enc, encErr = appendFrame(enc, m); encErr != nil {
				t.Fatalf("decoded frame %+v does not re-encode: %v", m, encErr)
			}
		}
		if len(enc) > len(b) || !bytes.Equal(enc, b[:len(enc)]) {
			t.Errorf("%d decoded frames re-encode to %x, read from %x", len(msgs), enc, b)
		}
		if err == io.EOF && len(enc) != len(b) {
			t.Errorf("clean EOF after %d of %d bytes", len(enc), len(b))
		}

		// Every byte boundary, for the inputs the fuzzer usually makes; a
		// stride keeps a rare long one from costing its length squared.
		for cut := 0; cut <= len(b); cut += len(b)/1024 + 1 {
			split, splitErr := readAll(fr, io.MultiReader(bytes.NewReader(b[:cut]), bytes.NewReader(b[cut:])))
			if !sameMessages(split, msgs) || (splitErr == io.EOF) != (err == io.EOF) {
				t.Fatalf("split at %d: %d frames, %v; whole: %d frames, %v", cut, len(split), splitErr, len(msgs), err)
			}
		}
	})
}
