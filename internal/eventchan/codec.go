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
// can fail before it delivers anything.
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

// errMalformed is wrapped by every decodeEvent error.
var errMalformed = errors.New("eventchan: malformed event")

// decodeEvent parses the wire form. Type and Source come from the small fixed
// vocabulary names interns, so a received event allocates neither.
func decodeEvent(names *orb.Interner, b []byte) (Event, error) {
	typ, rest, err := names.LV(b)
	if err != nil {
		return Event{}, fmt.Errorf("%w: type: %w", errMalformed, err)
	}
	src, rest, err := names.LV(rest)
	if err != nil {
		return Event{}, fmt.Errorf("%w: source: %w", errMalformed, err)
	}
	return Event{Type: typ, Source: src, Payload: rest}, nil
}
