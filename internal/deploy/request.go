package deploy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
)

// A NodeManager request body is one version byte, a uvarint string count,
// and that many strings, each a uvarint byte length and the bytes: the
// request's fields in declaration order (an int as its decimal text), then
// each attribute's key and value in strictly ascending key order. Decoding
// is strict, as the event payload codec's is (live/codec.go): the count and
// every length are checked against the bytes left before anything is
// allocated, varints and decimals must be minimal, keys must ascend and
// nothing may follow the last string. So each request has one encoding, and
// whatever decodes re-encodes to the same bytes. Every failure wraps
// ErrRequest.

// requestVersion is the first byte of every request body: a launcher and a
// node built from different layouts refuse each other's requests instead of
// misreading them.
const requestVersion byte = 1

// ErrRequest is wrapped by every failure to read a control-plane body: a
// NodeManager request, or the admission controller's Quiesce or Resume reply.
var ErrRequest = errors.New("deploy: malformed control message")

// AppendInstall appends the encoding of r to dst.
func AppendInstall(dst []byte, r *InstallRequest) []byte {
	return appendRequest(dst, r.Attrs, r.ID, r.Implementation)
}

// DecodeInstall decodes a body written by AppendInstall.
func DecodeInstall(b []byte) (InstallRequest, error) {
	f, attrs, err := decodeRequest(b, "install", 2, true)
	if err != nil {
		return InstallRequest{}, err
	}
	return InstallRequest{ID: f[0], Implementation: f[1], Attrs: attrs}, nil
}

// AppendConnect appends the encoding of r to dst.
func AppendConnect(dst []byte, r *ConnectRequest) []byte {
	return appendRequest(dst, nil, r.EventType, r.SinkAddr, strconv.Itoa(r.SinkProc))
}

// DecodeConnect decodes a body written by AppendConnect.
func DecodeConnect(b []byte) (ConnectRequest, error) {
	f, _, err := decodeRequest(b, "connect", 3, false)
	if err != nil {
		return ConnectRequest{}, err
	}
	proc, err := strconv.Atoi(f[2])
	if err != nil || strconv.Itoa(proc) != f[2] {
		return ConnectRequest{}, fmt.Errorf("deploy: decode connect request: sink processor %q: %w", f[2], ErrRequest)
	}
	return ConnectRequest{EventType: f[0], SinkAddr: f[1], SinkProc: proc}, nil
}

// AppendReconfig appends the encoding of r to dst.
func AppendReconfig(dst []byte, r *ReconfigRequest) []byte {
	return appendRequest(dst, r.Attrs, r.ID)
}

// DecodeReconfig decodes a body written by AppendReconfig.
func DecodeReconfig(b []byte) (ReconfigRequest, error) {
	f, attrs, err := decodeRequest(b, "reconfigure", 1, true)
	if err != nil {
		return ReconfigRequest{}, err
	}
	return ReconfigRequest{ID: f[0], Attrs: attrs}, nil
}

func appendRequest(dst []byte, attrs map[string]string, fields ...string) []byte {
	for _, k := range slices.Sorted(maps.Keys(attrs)) {
		fields = append(fields, k, attrs[k])
	}
	dst = binary.AppendUvarint(append(dst, requestVersion), uint64(len(fields)))
	for _, s := range fields {
		dst = append(binary.AppendUvarint(dst, uint64(len(s))), s...)
	}
	return dst
}

// decodeRequest reads a body of fixed leading strings followed, when attrs
// is set, by key and value pairs, which it returns as a map (nil when there
// are none). A string takes at least its length byte, so a count beyond the
// bytes left is refused before the string slice is sized, and the map is
// sized only once every key is known to ascend.
func decodeRequest(b []byte, name string, fixed int, attrs bool) ([]string, map[string]string, error) {
	fail := func(why string) ([]string, map[string]string, error) {
		return nil, nil, fmt.Errorf("deploy: decode %s request: %s: %w", name, why, ErrRequest)
	}
	if len(b) == 0 || b[0] != requestVersion {
		return fail("unknown version")
	}
	b = b[1:]
	n, ok := uvarint(&b)
	if !ok || n > uint64(len(b)) || n < uint64(fixed) || (n-uint64(fixed))%2 != 0 || !attrs && n != uint64(fixed) {
		return fail("bad string count")
	}
	f := make([]string, n)
	for i := range f {
		l, ok := uvarint(&b)
		if !ok || l > uint64(len(b)) {
			return fail("truncated")
		}
		f[i], b = string(b[:l]), b[l:]
	}
	if len(b) != 0 {
		return fail("trailing bytes")
	}
	for i := fixed + 2; i < len(f); i += 2 {
		if f[i] <= f[i-2] {
			return fail("keys not strictly ascending")
		}
	}
	var m map[string]string
	for i := fixed; i < len(f); i += 2 {
		if m == nil {
			m = make(map[string]string, (len(f)-fixed)/2)
		}
		m[f[i]] = f[i+1]
	}
	return f[:fixed], m, nil
}

// uvarint consumes a minimal uvarint from the front of *b.
func uvarint(b *[]byte) (uint64, bool) {
	v, k := binary.Uvarint(*b)
	if k <= 0 || k > 1 && (*b)[k-1] == 0 {
		return 0, false
	}
	*b = (*b)[k:]
	return v, true
}
