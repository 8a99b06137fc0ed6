package orb

import (
	"encoding/binary"
	"errors"
	"sync"
)

// Interning limits: a name longer than internMaxLen is not vocabulary, and a
// table that has reached internMaxWords stops learning, so a peer that
// invents names costs what it cost before interning and no more.
const (
	internMaxLen   = 64
	internMaxWords = 256
)

// errTruncated reports a length-prefixed string that runs past its buffer.
var errTruncated = errors.New("orb: truncated length-prefixed string")

// Interner hands out one shared string per distinct name, for the fields a
// frame repeats from a tiny fixed vocabulary (servant keys, operations, event
// types, node names) and would otherwise allocate on every frame. The zero
// value is ready and safe for concurrent use.
type Interner struct {
	mu    sync.RWMutex
	words map[string]string
}

// intern returns b as a string, shared with every earlier call that passed
// the same bytes.
func (in *Interner) intern(b []byte) string {
	if len(b) > internMaxLen {
		return string(b)
	}
	in.mu.RLock()
	s, ok := in.words[string(b)] // no allocation: a map index by converted key
	in.mu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	in.mu.Lock()
	defer in.mu.Unlock()
	if known, ok := in.words[s]; ok {
		return known
	}
	if len(in.words) < internMaxWords {
		if in.words == nil {
			in.words = make(map[string]string)
		}
		in.words[s] = s
	}
	return s
}

// LV decodes one uint16 length-prefixed string from the front of b, interned,
// and returns the bytes after it.
func (in *Interner) LV(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errTruncated
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, errTruncated
	}
	return in.intern(b[2 : 2+n]), b[2+n:], nil
}
