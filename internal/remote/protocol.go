// Package remote implements genuine distribution for the mediator: a TCP
// server (cmd/hermesd) that hosts source domains, and a client that makes a
// remote domain look like any local domain.Domain.
//
// There is one wire protocol. Every connection is persistent and
// multiplexes many calls; every message is a single JSON object on its own
// line (a Frame) carrying an op and a per-call ID: `hello` negotiates the
// version, `call` starts a call, `answers` frames stream back with
// first-answer-before-last-answer semantics, `cancel` aborts one call
// without dropping the connection, and `heartbeat` keeps idle connections
// verifiably alive in both directions. A broken connection ends every call
// on it with domain.ErrUnavailable; re-issuing the call is the resilience
// layer's job (internal/resilience), not the wire's.
//
// A client opens with `{"op":"hello","versions":[2],...}` and the server
// answers `{"op":"hello","version":2}`; the version list is kept because it
// checks input from outside the program. A stale peer is refused once,
// typed and counted, never served and never silently downgraded:
//
//   - A server whose first line is not a hello (a pre-v2 client opening
//     with its `call` or `functions` request) answers one error frame
//     carrying `err` and `done` — the keys such a client decodes — and
//     releases the connection; a hello offering only other versions gets a
//     hello frame carrying `err`. Both bump
//     hermes_remote_refused_total{reason="not-hello"|"version"}.
//   - A client whose hello is answered by anything but an accepting hello
//     frame returns ErrProtocolMismatch, which is not
//     domain.ErrUnavailable: resilience neither retries it nor trips the
//     breaker, and no second connection is dialled.
//
// Framing is one frame per line, ended by its newline. Both ends encode
// and decode with one hand-written codec (codec.go) that writes the bytes
// json.NewEncoder writes for a Frame — HTML escaping, field order,
// omitempty, float format and compacted raw payloads included — and reads
// what json.Unmarshal reads, or fails; answer values and call arguments
// go straight between term.Values and the line. encoding/json is kept as
// the tests' oracle (codec_test.go, FuzzFrameCodec) and as the
// interop harness's peer. The decoder matches keys exactly as spelled —
// encoding/json also matches them case-insensitively, the one documented
// divergence — and rejects a repeated key and a null outside a listing,
// which encoding/json accepts. An answer NaN or ±Inf has no JSON text: the
// server ends that call with an error frame naming it (not unavailable:
// a retry would hit the same value).
//
// Writes coalesce. Each connection has one frame writer: a frame encoded
// while another goroutine's Write is in flight joins the pending buffer,
// and its sender waits for that write, then writes everything pending as
// one batch (or finds another waiting sender has). A sender waits for at
// most the write in flight and its own batch, never for a clock, and never
// writes frames queued after its own, so the session read loop's inline
// heartbeat echo cannot keep it from reading a cancel. The server queues a
// call's trace frame and writes it with the done frame behind it. The
// first answer is never held: it is written at once, or right after the
// write in flight. The queue is bounded (maxPending): past it senders wait
// for the writer, so a peer that stops reading blocks them instead of
// growing memory. A write error is sticky: every frame not yet written
// reports it to its sender, as does every later write or queue, so
// hermes_remote_send_errors_total counts it once per lost frame under that
// frame's own label; a queued trace frame's loss is reported by the done
// frame written after it.
//
// The client's session reader never blocks on a call: each in-flight call
// has a slot that grows from empty and holds what arrived until the call
// reads it. A call's undelivered answers are therefore buffered in full —
// memory is bounded by the call's answer set, since the protocol has no
// per-call flow control — and one call left unread cannot stall another
// on the same session.
//
// A call allocates little beyond the values it delivers, on either end,
// and each buffer it borrows has one owner at a time:
//
//   - The client encodes a call's arguments straight into the frame
//     writer's pending buffer. Its call is one record, the answer stream,
//     which holds the routing slot; the slot's ready channel is the only
//     other allocation.
//   - The server's call is one record too, holding its domain.Ctx by
//     value. Every call on a session runs on the session's one wall clock:
//     a wall clock is only an epoch, and serving measures differences. A
//     call borrows an answer list from a pool for as long as it runs —
//     calls on one session run concurrently, so no list is session-wide —
//     and encodes each chunk into it; the writer has copied the chunk out
//     when send returns, and the list goes back to the pool when the call
//     ends.
//   - A traced call's serve subtree is encoded by obs straight into its
//     trace frame, within TraceMaxSubtreeBytes. That path is trusted: obs
//     writes compact JSON escaped as encoding/json escapes it, so the
//     check and escape-copy a json.RawMessage payload gets (appendRaw)
//     would re-read what was just written and change nothing. They stay
//     for untrusted payloads: debug rollups, and the frames the interop
//     harness builds. A property test holds the two paths byte-identical.
//   - A decoded frame's value lists, and the element arrays of its tuples,
//     are carved from one allocation per frame (term.JSONReader.Keep),
//     which is never reused: a value retains at most its own frame, and a
//     call's slot takes the frame's list over instead of copying it. Only
//     the buffer the list is read into, and the reader's line buffer, are
//     reused frame to frame; a trace payload is copied out of the line.
//     Known ops decode to this package's constants.
//
// The simulated-network experiments do not use this package — they wrap
// local domains with internal/netsim so that WAN latencies are virtual and
// deterministic. This package exists to run the system for real across
// machines, under wall-clock time. The socket-level fault/interop harness
// lives in internal/remote/interop.
package remote

import "encoding/json"

// ProtocolVersion is the streaming protocol version this package speaks.
const ProtocolVersion = 2

// Frame ops. OpHello doubles as the version-negotiation request and
// reply; OpAnswers carries answer chunks; OpError aborts one call.
const (
	OpHello     = "hello"
	OpCall      = "call"
	OpAnswers   = "answers"
	OpError     = "error"
	OpCancel    = "cancel"
	OpHeartbeat = "heartbeat"
	OpFunctions = "functions"
	// OpTrace is the server's final per-call trace frame: the serialized
	// span subtree it built while serving the call, sent just before the
	// done answers frame when both sides negotiated CapTrace.
	OpTrace = "trace"
	// OpDebug requests (client) and carries (server) a node's debug
	// rollup payload for /debug/cluster.
	OpDebug = "debug"
)

// Capabilities negotiated on hello frames: the client lists what it
// understands, the server replies with what it will use. A peer that
// advertises nothing is a plain speaker and is served without the
// optional frames, so capability growth never breaks interop.
const (
	// CapTrace: the peer understands federated trace context on call
	// frames and OpTrace subtree frames.
	CapTrace = "trace"
	// CapDebug: the peer answers OpDebug rollup requests.
	CapDebug = "debug"
)

// capSupported reports whether a hello's capability list names cap.
func capSupported(caps []string, cap string) bool {
	for _, c := range caps {
		if c == cap {
			return true
		}
	}
	return false
}

// Frame is one wire message: a single JSON object on its own line. The
// op selects which fields are meaningful; unknown fields are ignored on
// decode, so the vocabulary can grow compatibly. It is exported for the
// interop harness (internal/remote/interop), whose driver/responder
// simulators speak raw frames over real sockets through encoding/json;
// there Args and Values hold each value's term.AppendJSON text. The
// package's own codec never reads or fills them: it carries call arguments
// and answers as term.Values (appendFrame, frameIn).
type Frame struct {
	// Op is the frame type (OpHello, OpCall, ...).
	Op string `json:"op"`
	// ID is the client-assigned call identifier multiplexing frames of
	// concurrent calls over one connection. 0 on connection-scoped frames
	// (hello, heartbeat).
	ID uint64 `json:"id,omitempty"`

	// Versions (client hello) lists the protocol versions the client
	// speaks; Version (server hello) is the one the server picked.
	Versions []int `json:"versions,omitempty"`
	Version  int   `json:"version,omitempty"`
	// HeartbeatMS (client hello) announces the client's heartbeat period,
	// letting the server arm an idle deadline that distinguishes a
	// silently dead peer from a quiet one. 0 means no heartbeats.
	HeartbeatMS int `json:"heartbeat_ms,omitempty"`
	// Caps (both hellos) lists optional protocol capabilities (CapTrace,
	// CapDebug). Absent means neither; unknown names are ignored.
	Caps []string `json:"caps,omitempty"`

	// Call fields (OpCall).
	Domain   string            `json:"domain,omitempty"`
	Function string            `json:"function,omitempty"`
	Args     []json.RawMessage `json:"args,omitempty"`
	// Trace context (OpCall, when CapTrace was negotiated).
	// TraceID names the federated trace this call belongs to; Depth counts
	// mount hops from the origin, so a server can refuse to trace past its
	// depth limit (the cycle guard for mutually mounted nodes).
	TraceID string `json:"trace_id,omitempty"`
	Depth   int    `json:"depth,omitempty"`

	// Answer fields (OpAnswers). Done marks the last frame of a call; a
	// Done frame may itself carry trailing values.
	Values []json.RawMessage `json:"values,omitempty"`
	Done   bool              `json:"done,omitempty"`

	// Error fields (OpError, and hello rejections). Unavailable marks
	// retryable transport/source outages (domain.ErrUnavailable).
	Err         string `json:"err,omitempty"`
	Unavailable bool   `json:"unavailable,omitempty"`

	// Functions is the listing reply (OpFunctions).
	Functions map[string][]FnSpec `json:"functions,omitempty"`

	// Trace (OpTrace) is the obs.SpanData JSON of the span subtree the
	// server built serving this call, possibly truncated to the server's
	// subtree byte budget (root tagged truncated=1). Debug (OpDebug reply)
	// is the node's debug rollup JSON.
	Trace json.RawMessage `json:"trace,omitempty"`
	Debug json.RawMessage `json:"debug,omitempty"`
}

// versionSupported reports whether the server can speak any of the
// versions a client hello offered.
func versionSupported(versions []int) bool {
	for _, v := range versions {
		if v == ProtocolVersion {
			return true
		}
	}
	return false
}

// FnSpec describes one function in an OpFunctions listing.
type FnSpec struct {
	Name  string `json:"name"`
	Arity int    `json:"arity"`
	Doc   string `json:"doc,omitempty"`
}
