package remote

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"

	"hermes/internal/obs"
	"hermes/internal/term"
)

// The frame codec: one hand-written encoder and decoder for every Frame op.
// The encoder writes the line json.NewEncoder(w).Encode(f) writes; the
// decoder reads, from one line, the Frame json.Unmarshal reads or fails.
// Call arguments and answer values go straight between term.Values and the
// line (term.AppendJSON, term.JSONReader.Value), never through a Frame's
// Args and Values. codec_test.go holds both directions to encoding/json,
// which shares no code with the frame codec; term's tests hold the value
// codec to it.

// frameWriter writes whole frames, one line each, from many goroutines
// onto one connection, coalescing them: a frame encoded while another
// goroutine's Write is in flight joins the pending buffer, and its sender
// waits for that write to end, then writes everything pending as one
// batch — or finds that another waiting sender already has. Each sender
// waits for at most the write in flight and its own batch, never for a
// clock or for frames queued after its own. The first write error sticks:
// every frame not yet written, and every later write or queue, reports it.
type frameWriter struct {
	mu      sync.Mutex
	w       io.Writer
	pending []byte // frames encoded and not yet handed to w
	spare   []byte // a written batch's buffer, kept for the next one
	writing bool   // a batch's Write is in flight
	// started and written count the batches handed to w and returned
	// from it; a frame leaves in batch started+1 of the moment it is
	// encoded.
	started, written uint64
	err              error
	wrote            sync.Cond // a batch was taken or written, or the writer failed
}

// maxKeptLine bounds the buffer a writer keeps between batches.
const maxKeptLine = 64 << 10

// maxPending bounds the bytes queued behind an in-flight write: past it a
// caller waits until the writer takes them, so a peer that stops reading
// blocks its senders instead of growing the queue.
const maxPending = 256 << 10

// write encodes f with body b (nil: none) straight into the pending
// buffer, and returns once it has been written together with every frame
// queued before it.
func (w *frameWriter) write(f *Frame, b *frameBody) error {
	return w.put(f, b, true)
}

// queue encodes f with body b to leave with the next write.
func (w *frameWriter) queue(f *Frame, b *frameBody) error {
	return w.put(f, b, false)
}

func (w *frameWriter) put(f *Frame, b *frameBody, flush bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.wrote.L == nil {
		w.wrote.L = &w.mu
	}
	for w.err == nil && w.writing && len(w.pending) >= maxPending {
		w.wrote.Wait()
	}
	if w.err != nil {
		return w.err
	}
	line, err := appendFrameBody(w.pending, f, b)
	if err != nil {
		w.pending = line[:len(w.pending)] // drop what was encoded of f
		return err
	}
	w.pending = line
	if !flush {
		return nil
	}
	for batch := w.started + 1; w.err == nil && w.written < batch; {
		if w.writing {
			w.wrote.Wait()
		} else {
			w.writeBatch()
		}
	}
	return w.err
}

// broken reports whether a write has failed: the connection is lost.
func (w *frameWriter) broken() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err != nil
}

// writeBatch hands everything pending to w, unlocking around the Write.
func (w *frameWriter) writeBatch() {
	batch := w.pending
	w.pending, w.spare = w.spare, nil
	w.writing = true
	w.started++
	w.wrote.Broadcast() // the queue has room again
	w.mu.Unlock()
	_, err := w.w.Write(batch)
	w.mu.Lock()
	w.writing = false
	w.written++
	if err != nil && w.err == nil {
		w.err = err
	}
	if cap(batch) <= maxKeptLine {
		if len(w.pending) == 0 {
			w.pending = batch[:0]
		} else {
			w.spare = batch[:0]
		}
	}
	w.wrote.Broadcast()
}

// frameBody is what a frame carries that its Frame does not: call
// arguments and answer values as the sessions hold them, and a trace
// payload as the span tree it encodes. Each is written straight into the
// frame.
type frameBody struct {
	// args are a call's arguments, or argList their comma-separated
	// term.AppendJSON list.
	args    []term.Value
	argList []byte
	// values is an answers frame's term.AppendJSON list.
	values []byte
	// span, when set, is the trace payload, written by obs within spanMax
	// bytes (<= 0: no limit) in place of Frame.Trace; truncated reports
	// that levels were pruned to fit. obs writes compact JSON escaped as
	// encoding/json escapes it, so this trusted path skips appendRaw's
	// check and copy, which untrusted payloads keep.
	span      *obs.SpanData
	spanMax   int
	truncated bool
}

// errNoTrace reports a span with no encoding within its budget: the call
// ships no trace frame.
var errNoTrace = errors.New("remote: trace subtree does not fit its budget")

// appendFrame appends f as the line json.NewEncoder(w).Encode(f) writes,
// HTML escaping on, except that the args and values keys come from args
// and values, comma-separated term.AppendJSON lists (f.Args and f.Values
// are not read). A trace or debug payload that is not one JSON value is an
// error, as it is for encoding/json.
func appendFrame(dst []byte, f *Frame, args, values []byte) ([]byte, error) {
	return appendFrameBody(dst, f, &frameBody{argList: args, values: values})
}

// appendFrameBody is appendFrame with the args, values and trace of body
// b (nil: none). A frame dropped on error leaves dst's bytes as they were.
func appendFrameBody(dst []byte, f *Frame, b *frameBody) ([]byte, error) {
	if b == nil {
		b = &frameBody{}
	}
	dst = term.AppendJSONString(append(dst, `{"op":`...), f.Op)
	if f.ID != 0 {
		dst = strconv.AppendUint(append(dst, `,"id":`...), f.ID, 10)
	}
	for i, v := range f.Versions {
		dst = strconv.AppendInt(listSep(dst, i, `,"versions":[`), int64(v), 10)
	}
	dst = closeList(dst, len(f.Versions), ']')
	dst = appendInt(dst, `,"version":`, f.Version)
	dst = appendInt(dst, `,"heartbeat_ms":`, f.HeartbeatMS)
	for i, c := range f.Caps {
		dst = term.AppendJSONString(listSep(dst, i, `,"caps":[`), c)
	}
	dst = closeList(dst, len(f.Caps), ']')
	dst = appendString(dst, `,"domain":`, f.Domain)
	dst = appendString(dst, `,"function":`, f.Function)
	var err error
	switch {
	case len(b.args) > 0:
		if dst, err = appendValues(append(dst, `,"args":[`...), b.args); err != nil {
			return dst, err
		}
		dst = append(dst, ']')
	case len(b.argList) > 0:
		dst = append(append(append(dst, `,"args":[`...), b.argList...), ']')
	}
	dst = appendString(dst, `,"trace_id":`, f.TraceID)
	dst = appendInt(dst, `,"depth":`, f.Depth)
	if len(b.values) > 0 {
		dst = append(append(append(dst, `,"values":[`...), b.values...), ']')
	}
	if f.Done {
		dst = append(dst, `,"done":true`...)
	}
	dst = appendString(dst, `,"err":`, f.Err)
	if f.Unavailable {
		dst = append(dst, `,"unavailable":true`...)
	}
	if len(f.Functions) > 0 {
		dst = appendFunctions(dst, f.Functions)
	}
	if b.span != nil {
		var ok bool
		if dst, b.truncated, ok = obs.AppendSpanJSONWithin(append(dst, `,"trace":`...), *b.span, b.spanMax); !ok {
			return dst, errNoTrace
		}
	} else if dst, err = appendRaw(dst, `,"trace":`, f.Trace); err != nil {
		return dst, err
	}
	if dst, err = appendRaw(dst, `,"debug":`, f.Debug); err != nil {
		return dst, err
	}
	return append(dst, "}\n"...), nil
}

// listSep writes what precedes a list's element i: the key with its
// opening bracket, or a comma.
func listSep(dst []byte, i int, key string) []byte {
	if i == 0 {
		return append(dst, key...)
	}
	return append(dst, ',')
}

// closeList closes a list listSep opened, if it had an element.
func closeList(dst []byte, n int, close byte) []byte {
	if n == 0 {
		return dst
	}
	return append(dst, close)
}

// appendInt and appendString write one omitempty member.
func appendInt(dst []byte, key string, n int) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(n), 10)
}

func appendString(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return term.AppendJSONString(append(dst, key...), s)
}

// appendValues appends vs to list as a comma-separated term.AppendJSON
// list, after a comma unless list is empty or ends a '['.
func appendValues(list []byte, vs []term.Value) ([]byte, error) {
	for _, v := range vs {
		if n := len(list); n > 0 && list[n-1] != '[' {
			list = append(list, ',')
		}
		var err error
		if list, err = term.AppendJSON(list, v); err != nil {
			return list, err
		}
	}
	return list, nil
}

// appendFunctions writes a listing the way encoding/json writes the map:
// keys sorted, a nil spec list as null.
func appendFunctions(dst []byte, fns map[string][]FnSpec) []byte {
	names := make([]string, 0, len(fns))
	for name := range fns {
		names = append(names, name)
	}
	slices.Sort(names)
	for i, name := range names {
		dst = append(term.AppendJSONString(listSep(dst, i, `,"functions":{`), name), ':')
		specs := fns[name]
		if specs == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, s := range specs {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = term.AppendJSONString(append(dst, `{"name":`...), s.Name)
			dst = strconv.AppendInt(append(dst, `,"arity":`...), int64(s.Arity), 10)
			dst = append(appendString(dst, `,"doc":`, s.Doc), '}')
		}
		dst = append(dst, ']')
	}
	return closeList(dst, len(names), '}')
}

const hexDigits = "0123456789abcdef"

// appendRaw writes a json.RawMessage member the way encoding/json re-emits
// one: checked to be one JSON value, whitespace outside strings dropped,
// <, >, & and U+2028/U+2029 escaped.
func appendRaw(dst []byte, key string, raw []byte) ([]byte, error) {
	if len(raw) == 0 {
		return dst, nil
	}
	var r term.JSONReader
	r.Reset(raw)
	r.Skip()
	if err := r.End(); err != nil {
		return dst, fmt.Errorf("remote: %s payload: %w", key[2:len(key)-2], err)
	}
	dst = append(dst, key...)
	inString, escaped := false, false
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		switch {
		case c == '<' || c == '>' || c == '&':
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			continue
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x80 && raw[i+2]&^1 == 0xA8:
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[raw[i+2]&0xF])
			i += 2
			continue
		case escaped:
			escaped = false
		case inString:
			escaped = c == '\\'
			inString = c != '"'
		case c == '"':
			inString = true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			continue
		}
		dst = append(dst, c)
	}
	return dst, nil
}

// frameIn is one decoded frame: the Frame's fields, with its call arguments
// and answer values decoded straight to term.Values (the embedded Args and
// Values stay empty). badValue reports a well-formed frame carrying a form
// that names no value (term.JSONReader.Value's err): that fails the call,
// not the session.
//
// args and values, and the tuples in them, are carved from one allocation
// per frame (term.JSONReader.Keep), so a receiver may keep either list as
// it is; scratch, the buffer they are read into, is reused frame to frame.
type frameIn struct {
	Frame
	args, values []term.Value
	badValue     error
	scratch      []term.Value
}

// frameReader reads one connection's frames, one line each.
type frameReader struct {
	br   *bufio.Reader
	long []byte // a line longer than br's buffer, reassembled
	json term.JSONReader
}

func newFrameReader(conn io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(conn, 32<<10)}
}

// next reads the next line and decodes it into in. A frame ends at its
// newline: a connection that closes mid-line reports io.EOF.
func (d *frameReader) next(in *frameIn) error {
	line, err := d.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		d.long = append(d.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = d.br.ReadSlice('\n')
			d.long = append(d.long, line...)
		}
		line = d.long
	}
	if err != nil {
		return err
	}
	return decodeFrame(&d.json, line, in)
}

// frameKeys are Frame's JSON keys; a key's bit in a decoder's seen-set is
// 1 << its index.
var frameKeys = [...]string{"op", "id", "versions", "version", "heartbeat_ms", "caps",
	"domain", "function", "args", "trace_id", "depth", "values", "done",
	"err", "unavailable", "functions", "trace", "debug"}

// decodeFrame decodes line, one frame, into in, reusing in.scratch.
// For every line it yields the Frame json.Unmarshal decodes, or an error.
// It is stricter where encoding/json is lenient — a repeated key, a null
// outside a listing, anything but whitespace after the frame are errors —
// and matches keys exactly as spelled, where encoding/json also matches
// them case-insensitively. Trace is a slice of line, which the reader
// reuses: the client decodes it before it reads the next frame.
func decodeFrame(r *term.JSONReader, line []byte, in *frameIn) error {
	*in = frameIn{scratch: in.scratch}
	r.Reset(line)
	var seen uint32
	for more := r.Open('{'); more; more = r.More('}') {
		key := r.Key()
		for i, k := range frameKeys {
			if string(key) == k {
				if seen&(1<<i) != 0 {
					return fmt.Errorf("malformed frame: repeated key %q", key)
				}
				seen |= 1 << i
			}
		}
		switch string(key) {
		case "op":
			in.Op = opOf(r.Text())
		case "id":
			in.ID = r.Uint()
		case "versions":
			in.Versions = []int{}
			for more := r.Open('['); more; more = r.More(']') {
				in.Versions = append(in.Versions, int(r.Int()))
			}
		case "version":
			in.Version = int(r.Int())
		case "heartbeat_ms":
			in.HeartbeatMS = int(r.Int())
		case "caps":
			in.Caps = []string{}
			for more := r.Open('['); more; more = r.More(']') {
				in.Caps = append(in.Caps, r.Str())
			}
		case "domain":
			in.Domain = r.Str()
		case "function":
			in.Function = r.Str()
		case "args":
			in.args = in.readValues(r)
		case "trace_id":
			in.TraceID = r.Str()
		case "depth":
			in.Depth = int(r.Int())
		case "values":
			in.values = in.readValues(r)
		case "done":
			in.Done = r.Bool()
		case "err":
			in.Err = r.Str()
		case "unavailable":
			in.Unavailable = r.Bool()
		case "functions":
			var err error
			if in.Functions, err = readFunctions(r); err != nil {
				return err
			}
		case "trace":
			in.Trace = r.Raw() // the line's own bytes: read before the next frame
		case "debug":
			in.Debug = bytes.Clone(r.Raw())
		default:
			r.Skip()
		}
	}
	if err := r.End(); err != nil {
		return fmt.Errorf("malformed frame: %w", err)
	}
	return nil
}

// readValues reads a list of term values into in.scratch and returns it
// kept in the frame's arena; the first form that names no value becomes
// in.badValue.
func (in *frameIn) readValues(r *term.JSONReader) []term.Value {
	vs := in.scratch[:0]
	for more := r.Open('['); more; more = r.More(']') {
		v, err := r.Value()
		if err != nil && in.badValue == nil {
			in.badValue = err
		}
		vs = append(vs, v)
	}
	kept := r.Keep(vs)
	clear(vs)
	in.scratch = vs
	return kept
}

// frameOps are the ops this package sends; opOf returns the constant for
// one of them, so a frame's op costs no string.
var frameOps = [...]string{OpHello, OpCall, OpAnswers, OpError, OpCancel, OpHeartbeat, OpFunctions, OpTrace, OpDebug}

func opOf(text []byte) string {
	for _, op := range frameOps {
		if string(text) == op {
			return op
		}
	}
	return string(text)
}

// readFunctions reads a listing: an object of domain names to spec lists,
// a list being null when the domain listed none.
func readFunctions(r *term.JSONReader) (map[string][]FnSpec, error) {
	fns := map[string][]FnSpec{}
	for more := r.Open('{'); more; more = r.More('}') {
		name := string(r.Key())
		if _, dup := fns[name]; dup {
			return nil, fmt.Errorf("malformed frame: listing repeats domain %q", name)
		}
		if r.Null() {
			fns[name] = nil
			continue
		}
		specs := []FnSpec{}
		for more := r.Open('['); more; more = r.More(']') {
			var s FnSpec
			var seen uint8
			for more := r.Open('{'); more; more = r.More('}') {
				key := r.Key()
				var bit uint8
				switch string(key) {
				case "name":
					bit, s.Name = 1, r.Str()
				case "arity":
					bit, s.Arity = 2, int(r.Int())
				case "doc":
					bit, s.Doc = 4, r.Str()
				default:
					r.Skip()
				}
				if seen&bit != 0 {
					return nil, fmt.Errorf("malformed frame: function spec repeats key %q", key)
				}
				seen |= bit
			}
			specs = append(specs, s)
		}
		fns[name] = specs
	}
	return fns, nil
}
