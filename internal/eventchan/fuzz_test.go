package eventchan

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/orb"
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

// FuzzDecodeEvent feeds arbitrary bytes to the channel servant, the one
// decoder of the event plane, under FuzzDecodePayload's contract: no panic; no
// more heap than a small multiple of the input, whatever lengths it claims; a
// failure always wraps errMalformed; and bytes that decode re-encode to
// themselves. The servant must deliver exactly what decodeEvent returns, and
// nothing when it fails.
func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range []Event{
		{Type: "TaskArrive", Source: "app0", Payload: []byte{1, 2, 3, 4}},
		{Type: "Accept", Source: "manager", Payload: bytes.Repeat([]byte{0xAB}, 150)},
		{},
		{Type: strings.Repeat("t", 65), Source: "s"},
	} {
		enc, err := encodeEvent(ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		for i := range enc {
			f.Add(enc[:i])
		}
	}
	f.Add([]byte{0xFF, 0xFF})
	f.Add([]byte{0, 0, 0xFF, 0xFF, 'x'})

	ch := New("fuzz", orb.New("fuzz"))
	var delivered []Event
	f.Fuzz(func(t *testing.T, b []byte) {
		bound := uint64(16*len(b) + 8192)
		var (
			ev  Event
			err error
		)
		got := allocatedBytes(bound, func() { ev, err = decodeEvent(new(orb.Interner), b) })
		if got > bound {
			t.Errorf("decoding %d bytes allocated %d bytes, bound %d", len(b), got, bound)
		}
		if err != nil {
			if !errors.Is(err, errMalformed) {
				t.Errorf("error %v does not wrap errMalformed", err)
			}
		} else if again, encErr := encodeEvent(ev); encErr != nil || !bytes.Equal(again, b) {
			t.Errorf("%x decodes to %+v, which re-encodes to %x (%v)", b, ev, again, encErr)
		}

		// Through the servant, subscribed to whatever type the bytes name.
		sub := ch.Subscribe(ev.Type, func(got Event) { delivered = append(delivered, got) })
		defer sub.Cancel()
		delivered = delivered[:0]
		if _, servErr := ch.servant(opPush, b); (servErr == nil) != (err == nil) {
			t.Fatalf("servant error %v, decodeEvent error %v", servErr, err)
		}
		switch {
		case err != nil && len(delivered) != 0:
			t.Errorf("servant delivered %d events from undecodable bytes", len(delivered))
		case err == nil && (len(delivered) != 1 || delivered[0].Type != ev.Type ||
			delivered[0].Source != ev.Source || !bytes.Equal(delivered[0].Payload, ev.Payload)):
			t.Errorf("servant delivered %+v, want %+v", delivered, ev)
		}
	})
}
