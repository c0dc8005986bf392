package relayd

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Wire protocol: length-prefixed frames over any byte stream (TCP in
// production, net.Pipe in tests — the transport is opaque to the
// framing). Every frame is
//
//	[4-byte big-endian payload length][1-byte type][payload]
//
// A connection carries one conversation after another, and is idle
// between them. On an idle connection a session opens with HELLO (JSON
// SessionParams), is answered by ACCEPT (JSON Accept) or REFUSE (JSON
// Refuse; the connection stays idle), then streams DATA frames — each
// carrying one block of received samples followed by the same number of
// transmit-reference samples — and receives one OUT frame of processed
// samples per DATA frame. DONE ends the stream; the daemon answers with
// STATS (JSON Stats) and the connection is idle again. QUERY, on an idle
// connection, is answered with INFO (JSON Info). Any other frame is a
// protocol violation: REFUSE with code protocol, then the close.
// Samples travel as raw
// little-endian IEEE-754 float64 (re, im) pairs, 16 bytes per sample, so
// the daemon path is bit-transparent: what the chain computed is what
// the client reads back, exactly. That byte sequence is a little-endian
// host's []complex128 memory, so neither end encodes or decodes a block:
// each reads sample payloads into, and writes frames out of, one sample
// memory (a header slot, then the samples); a big-endian host swaps each
// float64's bytes in place (wireOrder). The wire is the same either way.
//
// Each frame goes out in one Write, its header stamped in front of the
// payload. Each connection reads through one controlWindow-byte
// bufio.Reader, and a frame's length is checked at its header, before
// any payload byte is read (readHeader). A sample payload is read
// through that reader, which hands any read larger than its buffer
// straight to the conn: only bytes it buffered past the header are
// copied.

// Frame types.
const (
	// FrameHello opens a session: JSON SessionParams.
	FrameHello byte = 1
	// FrameAccept admits it: JSON Accept.
	FrameAccept byte = 2
	// FrameRefuse rejects it, or a protocol violation: JSON Refuse.
	FrameRefuse byte = 3
	// FrameData carries one block: n rx samples then n reference samples
	// (payload length exactly 32n, n the session's BlockSamples).
	FrameData byte = 4
	// FrameOut returns the processed block: n samples (16n bytes).
	FrameOut byte = 5
	// FrameDone ends the stream cleanly (empty payload).
	FrameDone byte = 6
	// FrameStats closes the session, leaving the connection idle: JSON
	// Stats.
	FrameStats byte = 7
	// FrameQuery asks an idle connection for the daemon's admission state
	// (empty payload): the daemon answers with one INFO and the
	// connection stays idle, so a fleet scheduler polls residual load
	// without scraping the HTTP status JSON.
	FrameQuery byte = 8
	// FrameInfo answers a QUERY: JSON Info.
	FrameInfo byte = 9
)

// MaxFramePayload caps any frame's payload (16 MiB: a 512k-sample block
// with its reference). No sender emits more, and BlockSamples is bounded
// so that no session's DATA frame is larger.
const MaxFramePayload = 16 << 20

// frameHeaderLen is the fixed prefix: 4-byte length + 1-byte type.
const frameHeaderLen = 5

// SampleBytes is the wire size of one complex sample: two float64s.
const SampleBytes = 16

// SessionParams is the HELLO payload: everything the daemon needs to
// build the session's chain (deterministically, from Seed) and to price
// its admission against the aggregate Sec 3.5 budget.
type SessionParams struct {
	// SampleRateHz is the session's nominal sample rate; it scales the
	// CFO step and is the throughput the rate limiter charges against.
	SampleRateHz float64 `json:"sample_rate_hz"`
	// BlockSamples is the block size every DATA frame must carry.
	BlockSamples int `json:"block_samples"`
	// CancelTaps / CNFTaps size the session chain's two filters.
	CancelTaps int `json:"cancel_taps"`
	CNFTaps    int `json:"cnf_taps"`
	// CFOHz is the carrier-frequency offset the chain corrects.
	CFOHz float64 `json:"cfo_hz"`
	// Seed draws the synthetic chain taps; the same seed and sizes yield
	// the same chain on daemon and client (bit-identical verification).
	Seed int64 `json:"seed"`
	// CancellationDB, RDAttenDB, PAHeadroomDB, RxOverNoiseDB are the
	// session's Sec 3.5 admission physics (relay.SessionBudget).
	CancellationDB float64 `json:"cancellation_db"`
	RDAttenDB      float64 `json:"rd_atten_db"`
	PAHeadroomDB   float64 `json:"pa_headroom_db"`
	RxOverNoiseDB  float64 `json:"rx_over_noise_db"`
}

// Validate bounds-checks a HELLO before any resource is committed.
func (p SessionParams) Validate() error {
	switch {
	case !(p.SampleRateHz > 0) || math.IsInf(p.SampleRateHz, 0):
		return fmt.Errorf("sample_rate_hz %v out of range", p.SampleRateHz)
	case p.BlockSamples <= 0 || p.BlockSamples > MaxFramePayload/(2*SampleBytes):
		return fmt.Errorf("block_samples %d out of range", p.BlockSamples)
	case p.CancelTaps <= 0 || p.CancelTaps > 4096:
		return fmt.Errorf("cancel_taps %d out of range", p.CancelTaps)
	case p.CNFTaps <= 0 || p.CNFTaps > 4096:
		return fmt.Errorf("cnf_taps %d out of range", p.CNFTaps)
	case math.IsNaN(p.CFOHz) || math.IsInf(p.CFOHz, 0):
		return fmt.Errorf("cfo_hz %v out of range", p.CFOHz)
	case math.IsNaN(p.CancellationDB) || math.IsInf(p.CancellationDB, -1):
		return fmt.Errorf("cancellation_db %v out of range", p.CancellationDB)
	case math.IsNaN(p.RDAttenDB) || math.IsInf(p.RDAttenDB, 0):
		return fmt.Errorf("rd_atten_db %v out of range", p.RDAttenDB)
	case math.IsNaN(p.PAHeadroomDB) || math.IsInf(p.PAHeadroomDB, 0):
		return fmt.Errorf("pa_headroom_db %v out of range", p.PAHeadroomDB)
	case math.IsNaN(p.RxOverNoiseDB) || math.IsInf(p.RxOverNoiseDB, 1):
		return fmt.Errorf("rx_over_noise_db %v out of range", p.RxOverNoiseDB)
	}
	return nil
}

// Accept is the ACCEPT payload: the admission grant.
type Accept struct {
	SessionID uint64 `json:"session_id"`
	// AmpDB is the granted relay amplification; the session chain's amp
	// stage is built from it.
	AmpDB float64 `json:"amp_db"`
	// AmpBound names the binding constraint (relay.AmpBound.String()).
	AmpBound string `json:"amp_bound"`
	// StabilityHeadroomDB is the grant's margin to positive feedback
	// (relay.AmpDecision.StabilityHeadroomDB); carrying it on the wire
	// makes the full admission decision reconstructible client-side.
	StabilityHeadroomDB float64 `json:"stability_headroom_db"`
	// Degraded reports the grant was bisected below the strict bound by
	// the degrade admission policy.
	Degraded bool `json:"degraded"`
	// ResidualLoad echoes the aggregate budget load after this admission.
	ResidualLoad float64 `json:"residual_load"`
}

// Refuse codes, stable for clients and the troubleshooting table.
const (
	// RefuseBadHello: malformed or out-of-range HELLO.
	RefuseBadHello = "bad_hello"
	// RefuseDraining: the daemon is draining and admits nothing.
	RefuseDraining = "draining"
	// RefuseSessionLimit: MaxSessions reached.
	RefuseSessionLimit = "session_limit"
	// RefuseBudget: the Sec 3.5 aggregate residual budget refused it.
	RefuseBudget = "budget"
	// RefuseProtocol: a frame violated the protocol; the daemon closes
	// the connection after it.
	RefuseProtocol = "protocol"
	// RefuseUnreachable is client-side only: the daemon could not be
	// dialed or died mid-handshake. No daemon ever sends it; the fleet
	// scheduler synthesizes it so a transport failure maps onto the same
	// spill decision a live refusal would.
	RefuseUnreachable = "unreachable"
)

// Refuse is the REFUSE payload. It is also the error a client returns
// when the daemon refused the session (or a frame mid-session).
type Refuse struct {
	Code   string `json:"code"`
	Detail string `json:"detail,omitempty"`
}

// Error formats the refusal.
func (r *Refuse) Error() string {
	return fmt.Sprintf("relayd: refused (%s): %s", r.Code, r.Detail)
}

// Stats is the STATS payload: the session's final accounting.
type Stats struct {
	SessionID uint64  `json:"session_id"`
	Blocks    uint64  `json:"blocks"`
	Samples   uint64  `json:"samples"`
	AmpDB     float64 `json:"amp_db"`
}

// Info is the INFO payload: the admission state a QUERY observes. It is
// the wire twin of AdmissionStatus (status.go) minus the policy echo —
// exactly what a fleet scheduler needs to rank and bound a relay.
type Info struct {
	// Active is the number of sessions currently holding grants.
	Active int `json:"active"`
	// MaxSessions is the configured cap (0 = uncapped).
	MaxSessions int `json:"max_sessions"`
	// MinAmpDB is the admission threshold.
	MinAmpDB float64 `json:"min_amp_db"`
	// ResidualLoad is the aggregate Sec 3.5 residual load Σ β_i·A_i.
	ResidualLoad float64 `json:"residual_load"`
	// Draining reports the daemon refuses all new sessions.
	Draining bool `json:"draining"`
}

// writeFrame emits one frame with one Write. frame is the whole frame:
// its first frameHeaderLen bytes are reserved for the header, which
// writeFrame stamps for the payload that follows. The frame is borrowed
// for the call.
func writeFrame(w io.Writer, typ byte, frame []byte) error {
	n := len(frame) - frameHeaderLen
	if n > MaxFramePayload {
		return fmt.Errorf("relayd: frame payload %d exceeds %d", n, MaxFramePayload)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(n))
	frame[4] = typ
	_, err := w.Write(frame)
	return err
}

// jsonFrame marshals v into a fresh frame, its header left for
// writeFrame to stamp.
func jsonFrame(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, frameHeaderLen+len(body))
	copy(frame[frameHeaderLen:], body)
	return frame, nil
}

// writeJSONFrame marshals v into a fresh frame of the given type and
// emits it.
func writeJSONFrame(w io.Writer, typ byte, v any) error {
	frame, err := jsonFrame(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, frame)
}

// controlWindow is every connection's read buffer size and the largest
// frame but a session's sample frames; every JSON frame fits in it.
const controlWindow = 4 << 10

// errFrameLength rejects a frame whose declared length its type does not
// allow, before any of its payload is read: a protocol error, never an
// allocation.
var errFrameLength = errors.New("relayd: frame length not allowed for its type")

// readHeader takes one frame header off br and returns the frame's type
// and payload length. A frame of type bulk (DATA at the daemon, OUT at a
// client) must declare exactly bulkLen bytes and any other must fit the
// control window; any other length is errFrameLength, returned with the
// type and length and none of the payload read.
func readHeader(br *bufio.Reader, bulk byte, bulkLen int) (typ byte, n int, err error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		return 0, 0, err
	}
	typ, n = hdr[4], int(binary.BigEndian.Uint32(hdr[:4]))
	if typ == bulk && n != bulkLen || typ != bulk && n > controlWindow-frameHeaderLen {
		return typ, n, errFrameLength
	}
	_, err = br.Discard(frameHeaderLen)
	return typ, n, err
}

// readPayload takes the n-byte control payload that follows a header off
// br and returns it as a view of br's buffer.
func readPayload(br *bufio.Reader, n int) ([]byte, error) {
	payload, err := br.Peek(n)
	if err != nil {
		return nil, err
	}
	_, err = br.Discard(n)
	return payload, err
}

// littleEndian reports that the host stores a float64 in the wire's byte
// order: its native encoding of 1 puts the low byte first.
var littleEndian = binary.NativeEndian.AppendUint16(nil, 1)[0] != 0

// sampleBytes views samples as the bytes of their memory: after
// wireOrder, their wire encoding.
func sampleBytes(s []complex128) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*SampleBytes)
}

// wireOrder swaps samples in place between host and wire byte order: a
// no-op on a little-endian host, a byte reversal of each float64 (its own
// inverse, through integers, so NaN payloads survive) on a big-endian one.
func wireOrder(s []complex128) {
	if littleEndian {
		return
	}
	b := sampleBytes(s)
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], binary.NativeEndian.Uint64(b[i:]))
	}
}
