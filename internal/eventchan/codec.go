package eventchan

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/orb"
)

// maxFieldLen bounds the Type and Source fields, whose lengths travel as
// uint16 prefixes.
const maxFieldLen = 0xFFFF

// errFieldTooLong is wrapped by encodeEvent's length-guard errors.
var errFieldTooLong = errors.New("eventchan: event field exceeds 65535 bytes")

// validateEvent checks the length-prefix bounds without encoding, so Push
// can fail fast before an event enters any queue.
func validateEvent(ev Event) error {
	if len(ev.Type) > maxFieldLen {
		return fmt.Errorf("%w (Type is %d bytes)", errFieldTooLong, len(ev.Type))
	}
	if len(ev.Source) > maxFieldLen {
		return fmt.Errorf("%w (Source is %d bytes)", errFieldTooLong, len(ev.Source))
	}
	return nil
}

// encodeEvent flattens an event for the wire:
//
//	uint16 typeLen | type | uint16 sourceLen | source | payload
//
// Type or Source longer than 65535 bytes cannot be length-prefixed and
// returns an error rather than silently truncating the prefix.
func encodeEvent(ev Event) ([]byte, error) {
	if err := validateEvent(ev); err != nil {
		return nil, err
	}
	buf := make([]byte, 2+len(ev.Type)+2+len(ev.Source)+len(ev.Payload))
	off := 0
	binary.BigEndian.PutUint16(buf[off:], uint16(len(ev.Type)))
	off += 2
	off += copy(buf[off:], ev.Type)
	binary.BigEndian.PutUint16(buf[off:], uint16(len(ev.Source)))
	off += 2
	off += copy(buf[off:], ev.Source)
	copy(buf[off:], ev.Payload)
	return buf, nil
}

// decodeEvent parses the wire form. Type and Source come from the small fixed
// vocabulary names interns, so a received event allocates neither.
func decodeEvent(names *orb.Interner, b []byte) (Event, error) {
	typ, rest, err := names.LV(b)
	if err != nil {
		return Event{}, fmt.Errorf("eventchan: event type: %w", err)
	}
	src, rest, err := names.LV(rest)
	if err != nil {
		return Event{}, fmt.Errorf("eventchan: event source: %w", err)
	}
	return Event{Type: typ, Source: src, Payload: rest}, nil
}

// encodeBatch flattens a batch of events for one gateway push:
//
//	uint32 count | count × (uint32 eventLen | encoded event)
func encodeBatch(events []Event) ([]byte, error) {
	size := 4
	for _, ev := range events {
		if err := validateEvent(ev); err != nil {
			return nil, err
		}
		size += 4 + 2 + len(ev.Type) + 2 + len(ev.Source) + len(ev.Payload)
	}
	buf := make([]byte, 4, size)
	binary.BigEndian.PutUint32(buf, uint32(len(events)))
	for _, ev := range events {
		evLen := 2 + len(ev.Type) + 2 + len(ev.Source) + len(ev.Payload)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(evLen))
		buf = append(buf, hdr[:]...)
		var lv [2]byte
		binary.BigEndian.PutUint16(lv[:], uint16(len(ev.Type)))
		buf = append(buf, lv[:]...)
		buf = append(buf, ev.Type...)
		binary.BigEndian.PutUint16(lv[:], uint16(len(ev.Source)))
		buf = append(buf, lv[:]...)
		buf = append(buf, ev.Source...)
		buf = append(buf, ev.Payload...)
	}
	return buf, nil
}

// decodeBatch parses a batch envelope.
func decodeBatch(names *orb.Interner, b []byte) ([]Event, error) {
	if len(b) < 4 {
		return nil, errors.New("eventchan: truncated batch header")
	}
	count := int(binary.BigEndian.Uint32(b))
	rest := b[4:]
	// Each event costs at least its 4-byte length prefix; reject absurd
	// counts before allocating.
	if count > len(rest)/4 {
		return nil, fmt.Errorf("eventchan: implausible batch count %d for %d bytes", count, len(rest))
	}
	events := make([]Event, 0, count)
	for i := 0; i < count; i++ {
		if len(rest) < 4 {
			return nil, errors.New("eventchan: truncated batch entry header")
		}
		n := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if n < 0 || len(rest) < n {
			return nil, errors.New("eventchan: truncated batch entry")
		}
		ev, err := decodeEvent(names, rest[:n])
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("eventchan: %d trailing bytes after batch", len(rest))
	}
	return events, nil
}
