package live

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// The cold ORB request/reply facets — the admission controller's reconfig
// servant and the load balancer's Location servant — speak encoding/gob:
// they answer a handful of calls per reconfiguration from tools that may be
// built separately (rtmw-config, the plan launcher), where a self-describing
// format is worth its cost. Event payloads never come through here; they use
// the fixed layout in codec.go.

// gobEncode gob-encodes one facet argument or reply.
func gobEncode(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		// The facets only send int64, string and []sched.PlacedStage values;
		// failing to encode one is a programming error.
		panic(fmt.Sprintf("live: gob encode %T: %v", v, err))
	}
	return buf.Bytes()
}

// gobDecode gob-decodes one facet argument or reply into out.
func gobDecode(b []byte, out any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(out); err != nil {
		return fmt.Errorf("live: gob decode %T: %w", out, err)
	}
	return nil
}
