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
// A session opens with HELLO (JSON SessionParams), is answered by ACCEPT
// (JSON Accept) or REFUSE (JSON Refuse, then close), then streams DATA
// frames — each carrying one block of received samples followed by the
// same number of transmit-reference samples — and receives one OUT frame
// of processed samples per DATA frame. DONE ends the stream; the daemon
// answers with STATS (JSON Stats) and closes. Samples travel as raw
// little-endian IEEE-754 float64 (re, im) pairs, 16 bytes per sample, so
// the daemon path is bit-transparent: what the chain computed is what
// the client reads back, exactly. On a little-endian host that byte
// sequence is the []complex128 memory itself, so both ends encode and
// decode a block with one memory copy; a big-endian host runs the
// portable per-float bodies. The bytes on the wire are the same either
// way.
//
// Each frame goes out in one Write: the sender's frame buffer reserves
// the header in front of the payload. Each connection reads through one
// bufio.Reader whose size is that side's frame cap (its window), and a
// payload is decoded straight out of the window; a frame larger than the
// window is a protocol error.

// Frame types.
const (
	// FrameHello opens a session: JSON SessionParams.
	FrameHello byte = 1
	// FrameAccept admits it: JSON Accept.
	FrameAccept byte = 2
	// FrameRefuse rejects it (or a DATA violation): JSON Refuse.
	FrameRefuse byte = 3
	// FrameData carries one block: n rx samples then n reference samples
	// (payload length divisible by 32).
	FrameData byte = 4
	// FrameOut returns the processed block: n samples.
	FrameOut byte = 5
	// FrameDone ends the stream cleanly (empty payload).
	FrameDone byte = 6
	// FrameStats closes the session: JSON Stats.
	FrameStats byte = 7
	// FrameQuery asks for the daemon's admission state (empty payload).
	// It opens a control connection instead of a session: the daemon
	// answers each QUERY with one INFO and keeps the connection open for
	// further queries, so a fleet scheduler polls residual load without
	// scraping the HTTP status JSON.
	FrameQuery byte = 8
	// FrameInfo answers a QUERY: JSON Info.
	FrameInfo byte = 9
)

// MaxFramePayload caps any frame's payload (16 MiB: a 512k-sample block
// with its reference). No sender emits more and no read window is
// larger, so an oversized frame is a protocol error.
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
	// RefuseProtocol: a frame violated the protocol mid-session.
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

// controlWindow is the read window for control traffic: the daemon's
// before admission (HELLO, QUERY) and the smallest a client uses. Every
// JSON frame fits in it.
const controlWindow = 4 << 10

// errFrameTooLarge rejects a frame that does not fit the reader's window
// before any of its payload is read: a protocol error, never an
// allocation.
var errFrameTooLarge = errors.New("relayd: frame exceeds the read window")

// readFrame reads one frame through br, whose buffer size is the frame
// cap. The payload is a view of br's window: valid until br's next read.
func readFrame(br *bufio.Reader) (typ byte, payload []byte, err error) {
	typ, n, err := readHeader(br)
	if err != nil {
		return 0, nil, err
	}
	payload, err = readPayload(br, n)
	return typ, payload, err
}

// readHeader takes one frame header off br and returns the frame's type
// and payload length; a frame that would not fit br's window is
// errFrameTooLarge. It is readFrame's first half, split out so the daemon
// can re-arm its read deadline between header and payload.
func readHeader(br *bufio.Reader) (typ byte, n int, err error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		return 0, 0, err
	}
	n = int(binary.BigEndian.Uint32(hdr[:4]))
	if n > br.Size()-frameHeaderLen {
		return 0, 0, errFrameTooLarge
	}
	typ = hdr[4]
	_, err = br.Discard(frameHeaderLen)
	return typ, n, err
}

// readPayload takes the n-byte payload that follows a header off br and
// returns it as a view of br's window.
func readPayload(br *bufio.Reader, n int) ([]byte, error) {
	payload, err := br.Peek(n)
	if err != nil {
		return nil, err
	}
	_, err = br.Discard(n)
	return payload, err
}

// rewindow returns a reader over conn with a window of size bytes that
// first yields whatever br, conn's reader so far, had already buffered,
// so no byte is lost when the window changes (a client may send its
// first DATA frame in the same write as HELLO). Like readFrame it takes
// the conn as a plain reader; the caller arms the read deadline.
func rewindow(conn io.Reader, br *bufio.Reader, size int) *bufio.Reader {
	if br.Buffered() == 0 {
		return bufio.NewReaderSize(conn, size)
	}
	return bufio.NewReaderSize(io.MultiReader(io.LimitReader(br, int64(br.Buffered())), conn), size)
}

// littleEndian reports that the host stores a float64 in the wire's byte
// order: its native encoding of 1 puts the low byte first. It is set
// once, at package init; there the codec is a memory copy, and elsewhere
// the portable bodies run.
var littleEndian = binary.NativeEndian.AppendUint16(nil, 1)[0] != 0

// samplesToBytes serializes samples as little-endian float64 (re, im)
// pairs into dst, which must hold SampleBytes·len(s) bytes. On a
// little-endian host the sample memory already is that byte sequence, so
// it is copied as bytes; samplesToBytesGo runs otherwise.
func samplesToBytes(dst []byte, s []complex128) {
	if !littleEndian {
		samplesToBytesGo(dst, s)
		return
	}
	n := len(s) * SampleBytes
	if len(dst) < n {
		panic("relayd: samplesToBytes dst too short")
	}
	copy(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), n))
}

// bytesToSamples is the exact inverse of samplesToBytes; len(src) must be
// SampleBytes·len(dst). On a little-endian host the bytes are copied
// into the sample memory, viewed as bytes; bytesToSamplesGo runs
// otherwise. src itself is never viewed as samples: a payload sits at an
// unaligned offset of its frame.
func bytesToSamples(dst []complex128, src []byte) {
	if !littleEndian {
		bytesToSamplesGo(dst, src)
		return
	}
	n := len(dst) * SampleBytes
	if len(src) < n {
		panic("relayd: bytesToSamples src too short")
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), n), src)
}

// samplesToBytesGo is samplesToBytes's portable body, one float64 at a
// time through binary.LittleEndian; it runs on big-endian hosts.
func samplesToBytesGo(dst []byte, s []complex128) {
	for i, v := range s {
		binary.LittleEndian.PutUint64(dst[i*SampleBytes:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(dst[i*SampleBytes+8:], math.Float64bits(imag(v)))
	}
}

// bytesToSamplesGo is bytesToSamples's portable body; it runs on
// big-endian hosts.
func bytesToSamplesGo(dst []complex128, src []byte) {
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(src[i*SampleBytes:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(src[i*SampleBytes+8:]))
		dst[i] = complex(re, im)
	}
}
