package orb

import (
	"bufio"
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

// readBufSize is each connection's read buffer: a burst of small frames (a
// live event is 100-200 bytes) costs one read instead of two per frame.
const readBufSize = 16 << 10

// bodyChunk is the least a frame body's first allocation may be when the
// body has not arrived yet; see readMessage.
const bodyChunk = 4 << 10

// frameReader is the receive half of one connection: every frame is read
// through one buffer, by one goroutine, in the order it was written. names
// interns the servant keys and operations the connection carries.
type frameReader struct {
	br    *bufio.Reader
	names Interner
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, readBufSize)}
}

// readMessage reads one framed message. The body is a fresh slice the caller
// may keep. A length prefix is only a claim: the body's buffer starts at what
// has arrived (at least bodyChunk) and doubles as the rest does, so a peer
// that sends four bytes cannot make the reader allocate maxFrame.
func (fr *frameReader) readMessage() (message, error) {
	hdr, err := fr.br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return message{}, err
	}
	total := int(binary.BigEndian.Uint32(hdr))
	if total < 9 || total > maxFrame {
		return message{}, fmt.Errorf("orb: invalid frame length %d", total)
	}
	fr.br.Discard(4) // cannot fail: Peek buffered them
	buf := make([]byte, min(total, max(fr.br.Buffered(), bodyChunk)))
	for n := 0; ; {
		if _, err := io.ReadFull(fr.br, buf[n:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return message{}, err
		}
		if n = len(buf); n == total {
			break
		}
		grown := make([]byte, min(total, 2*n))
		copy(grown, buf)
		buf = grown
	}
	m := message{kind: buf[0], id: binary.BigEndian.Uint64(buf[1:9])}
	payload := buf[9:]
	switch m.kind {
	case msgRequest, msgOneWay:
		if m.key, payload, err = fr.names.LV(payload); err != nil {
			return message{}, err
		}
		if m.op, payload, err = fr.names.LV(payload); err != nil {
			return message{}, err
		}
		m.body = payload
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
