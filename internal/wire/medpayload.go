package wire

import (
	"encoding/binary"
	"math"
)

// Payload codecs for the mediator control plane. The wire package stays
// independent of the mediator package: medrpc converts between these flat
// forms and the mediator's native types. Times travel as Unix nanoseconds
// — federation assumes loosely synchronized replica clocks, which lease
// TTLs (hundreds of milliseconds and up) tolerate easily.

// MedOpenRequest is the body of a TMedOpen packet: a client's session
// requirements.
type MedOpenRequest struct {
	Rate         float64 // required data-rate, bytes/second
	ParityShards uint16  // parity units per stripe row (k); 0 = none
	Key          string  // placement key
}

// appendShards encodes a redundancy scheme as the wire's flag byte
// (k > 0) followed by k.
func appendShards(dst []byte, k uint16) []byte {
	if k > 0 {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return binary.BigEndian.AppendUint16(dst, k)
}

// AppendMedOpenRequest encodes r.
func AppendMedOpenRequest(dst []byte, r *MedOpenRequest) []byte {
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Rate))
	dst = appendShards(dst, r.ParityShards)
	return appendString(dst, r.Key)
}

// ParseMedOpenRequest decodes a TMedOpen payload. Older clients sent a
// bare redundancy flag with a zero count to ask for the single computed
// copy, so flag 1 with k = 0 decodes as k = 1.
func ParseMedOpenRequest(b []byte) (MedOpenRequest, error) {
	if len(b) < 11 {
		return MedOpenRequest{}, ErrShortPayload
	}
	r := MedOpenRequest{
		Rate:         math.Float64frombits(binary.BigEndian.Uint64(b)),
		ParityShards: binary.BigEndian.Uint16(b[9:]),
	}
	if b[8] != 0 && r.ParityShards == 0 {
		r.ParityShards = 1
	}
	key, _, err := parseString(b[11:])
	if err != nil {
		return MedOpenRequest{}, err
	}
	r.Key = key
	return r, nil
}

// MedRecord is the flat form of one replicated session: the body of
// TMedOpenReply and TMedRenew packets and the record part of TMedMirror.
// A record with many agents can exceed MaxPayload; Marshal then fails
// with ErrOversize and the mediator rejects the plan as unshippable.
type MedRecord struct {
	ID      uint64
	Key     string
	Home    string
	Expires int64 // lease deadline, Unix nanoseconds; 0 = no lease
	Unit    int64
	Shards  uint16 // parity shards per stripe row (k); 0 = none
	Rate    float64
	Agents  []uint16 // selected agent indices, striping order
	Addrs   []string // their control addresses
}

// AppendMedRecord encodes r. The agent and addr counts travel as
// uint16, so records must carry at most 65535 entries of each; the
// producer (medrpc's toWireRecord) validates that bound and the agent
// index range before building a MedRecord, keeping this codec
// allocation- and error-free.
func AppendMedRecord(dst []byte, r *MedRecord) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.ID)
	dst = appendString(dst, r.Key)
	dst = appendString(dst, r.Home)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Expires))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Unit))
	dst = appendShards(dst, r.Shards)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Rate))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Agents)))
	for _, a := range r.Agents {
		dst = binary.BigEndian.AppendUint16(dst, a)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Addrs)))
	for _, a := range r.Addrs {
		dst = appendString(dst, a)
	}
	return dst
}

// parseMedRecord decodes a record, returning the remaining bytes.
func parseMedRecord(b []byte) (MedRecord, []byte, error) {
	var r MedRecord
	if len(b) < 8 {
		return r, nil, ErrShortPayload
	}
	r.ID = binary.BigEndian.Uint64(b)
	b = b[8:]
	var err error
	if r.Key, b, err = parseString(b); err != nil {
		return r, nil, err
	}
	if r.Home, b, err = parseString(b); err != nil {
		return r, nil, err
	}
	if len(b) < 8+8+1+2+8+2 {
		return r, nil, ErrShortPayload
	}
	r.Expires = int64(binary.BigEndian.Uint64(b))
	r.Unit = int64(binary.BigEndian.Uint64(b[8:]))
	r.Shards = binary.BigEndian.Uint16(b[17:]) // b[16] is the k > 0 flag
	r.Rate = math.Float64frombits(binary.BigEndian.Uint64(b[19:]))
	n := int(binary.BigEndian.Uint16(b[27:]))
	b = b[29:]
	if len(b) < n*2 {
		return r, nil, ErrShortPayload
	}
	r.Agents = make([]uint16, n)
	for i := 0; i < n; i++ {
		r.Agents[i] = binary.BigEndian.Uint16(b[i*2:])
	}
	b = b[n*2:]
	if len(b) < 2 {
		return r, nil, ErrShortPayload
	}
	na := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	r.Addrs = make([]string, 0, na)
	for i := 0; i < na; i++ {
		var s string
		if s, b, err = parseString(b); err != nil {
			return r, nil, err
		}
		r.Addrs = append(r.Addrs, s)
	}
	return r, b, nil
}

// ParseMedRecord decodes a TMedOpenReply or TMedRenew payload.
func ParseMedRecord(b []byte) (MedRecord, error) {
	r, _, err := parseMedRecord(b)
	return r, err
}

// MedMirror is the body of a TMedMirror packet: one replication update.
type MedMirror struct {
	Op   uint8 // mediator.MirrorOp
	From string
	Rec  MedRecord
}

// AppendMedMirror encodes u.
func AppendMedMirror(dst []byte, u *MedMirror) []byte {
	dst = append(dst, u.Op)
	dst = appendString(dst, u.From)
	return AppendMedRecord(dst, &u.Rec)
}

// ParseMedMirror decodes a TMedMirror payload.
func ParseMedMirror(b []byte) (MedMirror, error) {
	if len(b) < 1 {
		return MedMirror{}, ErrShortPayload
	}
	u := MedMirror{Op: b[0]}
	var err error
	b = b[1:]
	if u.From, b, err = parseString(b); err != nil {
		return MedMirror{}, err
	}
	if u.Rec, _, err = parseMedRecord(b); err != nil {
		return MedMirror{}, err
	}
	return u, nil
}

// MedHome is the body of a TMedRenewReply packet: where the session's
// lease now lives, so a renew against a draining replica transparently
// re-targets the client.
type MedHome struct {
	Home string
}

// AppendMedHome encodes h.
func AppendMedHome(dst []byte, h *MedHome) []byte { return appendString(dst, h.Home) }

// ParseMedHome decodes a TMedRenewReply payload.
func ParseMedHome(b []byte) (MedHome, error) {
	home, _, err := parseString(b)
	return MedHome{Home: home}, err
}

// MedCachedObject names one cached object together with the mediator
// write-generation the cached image reflects.
type MedCachedObject struct {
	Name string
	Gen  uint64
}

// appendCachedObjects encodes a uint16-counted object list.
func appendCachedObjects(dst []byte, objs []MedCachedObject) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(objs)))
	for _, o := range objs {
		dst = appendString(dst, o.Name)
		dst = binary.BigEndian.AppendUint64(dst, o.Gen)
	}
	return dst
}

// parseCachedObjects decodes a uint16-counted object list, returning the
// remaining bytes.
func parseCachedObjects(b []byte) ([]MedCachedObject, []byte, error) {
	if len(b) < 2 {
		return nil, nil, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	var out []MedCachedObject
	for i := 0; i < n; i++ {
		var o MedCachedObject
		var err error
		if o.Name, b, err = parseString(b); err != nil {
			return nil, nil, err
		}
		if len(b) < 8 {
			return nil, nil, ErrShortPayload
		}
		o.Gen = binary.BigEndian.Uint64(b)
		b = b[8:]
		out = append(out, o)
	}
	return out, b, nil
}

// MedCacheSync is the body of a TMedInvalidate packet: one client's
// cache-coherence round — the session, the objects it caches (with the
// generations their images reflect), and the objects it wrote since its
// last successful round.
type MedCacheSync struct {
	Session uint64
	Cached  []MedCachedObject
	Written []string
}

// AppendMedCacheSync encodes s.
func AppendMedCacheSync(dst []byte, s *MedCacheSync) []byte {
	dst = binary.BigEndian.AppendUint64(dst, s.Session)
	dst = appendCachedObjects(dst, s.Cached)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s.Written)))
	for _, name := range s.Written {
		dst = appendString(dst, name)
	}
	return dst
}

// ParseMedCacheSync decodes a TMedInvalidate payload.
func ParseMedCacheSync(b []byte) (MedCacheSync, error) {
	var s MedCacheSync
	if len(b) < 8 {
		return s, ErrShortPayload
	}
	s.Session = binary.BigEndian.Uint64(b)
	b = b[8:]
	var err error
	if s.Cached, b, err = parseCachedObjects(b); err != nil {
		return s, err
	}
	if len(b) < 2 {
		return s, ErrShortPayload
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	for i := 0; i < n; i++ {
		var name string
		if name, b, err = parseString(b); err != nil {
			return s, err
		}
		s.Written = append(s.Written, name)
	}
	return s, nil
}

// MedCacheSyncReply is the body of a TMedInvalidateReply packet: the
// declared objects whose cached images are stale, each with the
// generation a fresh fetch will reflect.
type MedCacheSyncReply struct {
	Stale []MedCachedObject
}

// AppendMedCacheSyncReply encodes r.
func AppendMedCacheSyncReply(dst []byte, r *MedCacheSyncReply) []byte {
	return appendCachedObjects(dst, r.Stale)
}

// ParseMedCacheSyncReply decodes a TMedInvalidateReply payload.
func ParseMedCacheSyncReply(b []byte) (MedCacheSyncReply, error) {
	stale, _, err := parseCachedObjects(b)
	return MedCacheSyncReply{Stale: stale}, err
}

// MedStatus is the body of a TMedStatusReply packet: one replica's
// operator-facing state.
type MedStatus struct {
	Name          string
	Role          string
	Sessions      uint32
	HomeSessions  uint32
	LastHandoff   int64 // Unix nanoseconds; 0 = never
	Failovers     uint64
	Handoffs      uint64
	Expirations   uint64
	AgentReserved []float64
	NetReserved   []float64
}

// AppendMedStatus encodes s.
func AppendMedStatus(dst []byte, s *MedStatus) []byte {
	dst = appendString(dst, s.Name)
	dst = appendString(dst, s.Role)
	dst = binary.BigEndian.AppendUint32(dst, s.Sessions)
	dst = binary.BigEndian.AppendUint32(dst, s.HomeSessions)
	dst = binary.BigEndian.AppendUint64(dst, uint64(s.LastHandoff))
	dst = binary.BigEndian.AppendUint64(dst, s.Failovers)
	dst = binary.BigEndian.AppendUint64(dst, s.Handoffs)
	dst = binary.BigEndian.AppendUint64(dst, s.Expirations)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s.AgentReserved)))
	for _, v := range s.AgentReserved {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s.NetReserved)))
	for _, v := range s.NetReserved {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// ParseMedStatus decodes a TMedStatusReply payload.
func ParseMedStatus(b []byte) (MedStatus, error) {
	var s MedStatus
	var err error
	if s.Name, b, err = parseString(b); err != nil {
		return s, err
	}
	if s.Role, b, err = parseString(b); err != nil {
		return s, err
	}
	if len(b) < 4+4+8+8+8+8+2 {
		return s, ErrShortPayload
	}
	s.Sessions = binary.BigEndian.Uint32(b)
	s.HomeSessions = binary.BigEndian.Uint32(b[4:])
	s.LastHandoff = int64(binary.BigEndian.Uint64(b[8:]))
	s.Failovers = binary.BigEndian.Uint64(b[16:])
	s.Handoffs = binary.BigEndian.Uint64(b[24:])
	s.Expirations = binary.BigEndian.Uint64(b[32:])
	n := int(binary.BigEndian.Uint16(b[40:]))
	b = b[42:]
	if len(b) < n*8 {
		return s, ErrShortPayload
	}
	s.AgentReserved = make([]float64, n)
	for i := 0; i < n; i++ {
		s.AgentReserved[i] = math.Float64frombits(binary.BigEndian.Uint64(b[i*8:]))
	}
	b = b[n*8:]
	if len(b) < 2 {
		return s, ErrShortPayload
	}
	nn := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < nn*8 {
		return s, ErrShortPayload
	}
	s.NetReserved = make([]float64, nn)
	for i := 0; i < nn; i++ {
		s.NetReserved[i] = math.Float64frombits(binary.BigEndian.Uint64(b[i*8:]))
	}
	return s, nil
}
