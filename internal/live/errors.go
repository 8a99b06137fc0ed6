package live

import "errors"

// Sentinel errors for the live binding's configuration and reconfiguration
// paths, so callers of the unified Binding API can discriminate failures
// with errors.Is instead of matching message strings. Sites wrap these with
// contextual detail (component, attribute); the sentinel is the stable part.
var (
	// ErrNotConfigured marks a lifecycle call on a component that has not
	// been configured yet (Activate or Reconfigure before Configure).
	ErrNotConfigured = errors.New("live: component not configured")
	// ErrAlreadyActive marks a Configure call on a component that is already
	// activated; live attribute changes must go through Reconfigure.
	ErrAlreadyActive = errors.New("live: component already active")
	// ErrInvalidStrategy marks a strategy attribute that does not parse or a
	// combination the feasibility rules reject.
	ErrInvalidStrategy = errors.New("live: invalid strategy")
	// ErrNotQuiesced marks a strategy swap attempted while the admission
	// controller is still deciding arrivals: the two-phase protocol requires
	// Quiesce before Reconfigure.
	ErrNotQuiesced = errors.New("live: admission controller not quiesced")
	// ErrQuiesced marks an operation refused because the admission
	// controller is already quiesced (a concurrent reconfiguration is in
	// progress).
	ErrQuiesced = errors.New("live: admission controller already quiesced")
	// ErrNodeDown marks an operation addressed to a node the failure
	// detector has declared dead and no failover has re-homed yet.
	ErrNodeDown = errors.New("live: node down")
	// ErrPayload marks an event payload the codec refuses: truncated, the
	// wrong type, a length that overruns the bytes, trailing bytes, or a
	// payload in another format (a gob payload from an older build).
	ErrPayload = errors.New("live: malformed event payload")
)
