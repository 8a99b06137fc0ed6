package orb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Message kinds.
const (
	msgRequest byte = iota + 1
	msgReply
	msgOneWay
)

// Reply statuses.
const (
	statusOK byte = iota
	statusException
)

// maxFrame bounds a single message to guard against corrupt length prefixes.
const maxFrame = 16 << 20

// message is one framed protocol unit. Requests carry key/op/body; replies
// carry status/body.
type message struct {
	kind   byte
	id     uint64
	key    string
	op     string
	status byte
	body   []byte
}

// appendFrame validates m and appends its framed encoding to dst:
//
//	uint32 length | byte kind | uint64 id | payload
//
// where the request payload is uint16 keyLen | key | uint16 opLen | op |
// body, and the reply payload is byte status | body. Frames are
// self-contained, so a batched flush of n frames is byte-identical to n
// sequential writeMessage calls.
func appendFrame(dst []byte, m message) ([]byte, error) {
	var payload int
	switch m.kind {
	case msgRequest, msgOneWay:
		payload = 2 + len(m.key) + 2 + len(m.op) + len(m.body)
	case msgReply:
		payload = 1 + len(m.body)
	default:
		return dst, fmt.Errorf("orb: unknown message kind %d", m.kind)
	}
	total := 1 + 8 + payload
	if total > maxFrame {
		return dst, fmt.Errorf("orb: frame of %d bytes exceeds limit", total)
	}
	start := len(dst)
	dst = append(dst, make([]byte, 4+total)...)
	buf := dst[start:]
	binary.BigEndian.PutUint32(buf[0:], uint32(total))
	buf[4] = m.kind
	binary.BigEndian.PutUint64(buf[5:], m.id)
	off := 13
	switch m.kind {
	case msgRequest, msgOneWay:
		if len(m.key) > 0xFFFF || len(m.op) > 0xFFFF {
			return dst[:start], errors.New("orb: key or operation name too long")
		}
		binary.BigEndian.PutUint16(buf[off:], uint16(len(m.key)))
		off += 2
		off += copy(buf[off:], m.key)
		binary.BigEndian.PutUint16(buf[off:], uint16(len(m.op)))
		off += 2
		off += copy(buf[off:], m.op)
		copy(buf[off:], m.body)
	case msgReply:
		buf[off] = m.status
		copy(buf[off+1:], m.body)
	}
	return dst, nil
}

// readMessage reads one framed message.
func readMessage(r io.Reader) (message, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return message{}, err
	}
	total := binary.BigEndian.Uint32(lenBuf[:])
	if total < 9 || total > maxFrame {
		return message{}, fmt.Errorf("orb: invalid frame length %d", total)
	}
	buf := make([]byte, total)
	if _, err := io.ReadFull(r, buf); err != nil {
		return message{}, err
	}
	m := message{kind: buf[0], id: binary.BigEndian.Uint64(buf[1:9])}
	payload := buf[9:]
	switch m.kind {
	case msgRequest, msgOneWay:
		key, rest, err := readLVString(payload)
		if err != nil {
			return message{}, err
		}
		op, rest, err := readLVString(rest)
		if err != nil {
			return message{}, err
		}
		m.key, m.op, m.body = key, op, rest
	case msgReply:
		if len(payload) < 1 {
			return message{}, errors.New("orb: truncated reply")
		}
		m.status = payload[0]
		m.body = payload[1:]
	default:
		return message{}, fmt.Errorf("orb: unknown message kind %d", m.kind)
	}
	return m, nil
}

// readLVString decodes a uint16 length-prefixed string.
func readLVString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errors.New("orb: truncated string header")
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, errors.New("orb: truncated string body")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}
