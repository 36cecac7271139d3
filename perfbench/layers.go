package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/store"
	"swift/internal/transport"
	"swift/internal/wire"
)

// The traced run measures the transport and store layers from outside:
// the benchmark hands the agents and the client these wrappers instead of
// the bare udpnet hosts and file stores. Each wrapper forwards every call
// unchanged (same bytes, same results, same errors) and records counts,
// bytes and time spent inside the call.

// interval is one call into a layer, in nanoseconds since the run's epoch.
type interval struct{ start, end int64 }

// intervalLog collects call intervals for self-time accounting.
type intervalLog struct {
	mu     sync.Mutex
	ivs    []interval
	maxDur int64
}

func (l *intervalLog) add(start, end int64) {
	l.mu.Lock()
	l.ivs = append(l.ivs, interval{start, end})
	if d := end - start; d > l.maxDur {
		l.maxDur = d
	}
	l.mu.Unlock()
}

// sorted returns the intervals ordered by start and the longest duration.
// Call it only once recording has stopped.
func (l *intervalLog) sorted() ([]interval, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sort.Slice(l.ivs, func(i, j int) bool { return l.ivs[i].start < l.ivs[j].start })
	return l.ivs, l.maxDur
}

// clock converts wall instants to nanoseconds since a fixed epoch, using
// the monotonic reading.
type clock struct{ epoch time.Time }

func (c clock) ns(t time.Time) int64 { return int64(t.Sub(c.epoch)) }

// netCounters are the traffic totals of one wrapped host.
type netCounters struct {
	pktsOut, bytesOut atomic.Int64
	sendNs            atomic.Int64 // time inside WriteTo
	recvNs            atomic.Int64 // time blocked inside ReadFrom
	recvCalls         atomic.Int64
	readTimeouts      atomic.Int64
	dataPkts          atomic.Int64 // TData packets sent
	dataFirst         atomic.Int64 // TData packets sent for the first time
	dataBytes         atomic.Int64 // TData payload bytes sent
	ctlPkts           atomic.Int64 // every other packet sent
	badPkts           atomic.Int64 // datagrams wire.Unmarshal rejected
}

// dataSeen remembers which data packets were already sent once, so a
// resent packet counts as wasted work. A packet is identified by its
// sending socket, session handle, request id and offset: write resends
// repeat all four, while a read re-requested under a new request id
// counts as new (read-side waste shows in core.timeouts instead).
//
// Memory stays bounded: ids live in two generations of seenGen entries
// each, and the older one is dropped when the newer fills. Resends
// follow their first send within tens of milliseconds, far fewer packets
// than a generation holds.
type dataSeen struct {
	mu       sync.Mutex
	cur, old map[[4]uint64]struct{}
}

const seenGen = 1 << 16

func (d *dataSeen) first(conn uint64, h *wire.Header) bool {
	k := [4]uint64{conn, h.Handle, uint64(h.ReqID), uint64(h.Offset)}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.cur[k]; ok {
		return false
	}
	if _, ok := d.old[k]; ok {
		return false
	}
	if len(d.cur) >= seenGen {
		d.old, d.cur = d.cur, make(map[[4]uint64]struct{}, seenGen)
	}
	d.cur[k] = struct{}{}
	return true
}

// netProbe is shared by every wrapped host of one cluster.
type netProbe struct {
	clk    clock
	seen   dataSeen
	connID atomic.Uint64
}

func newNetProbe(clk clock) *netProbe {
	return &netProbe{clk: clk, seen: dataSeen{cur: make(map[[4]uint64]struct{})}}
}

// timedHost wraps a transport.Host. Its sockets carry the label that was
// current when they were opened, and, when logCalls is set, log every
// send and receive interval under that label.
type timedHost struct {
	inner    transport.Host
	probe    *netProbe
	logCalls bool
	net      netCounters

	label atomic.Pointer[string]
	mu    sync.Mutex
	logs  map[string]*intervalLog // by socket label
}

func newTimedHost(inner transport.Host, probe *netProbe, logCalls bool) *timedHost {
	return &timedHost{inner: inner, probe: probe, logCalls: logCalls, logs: make(map[string]*intervalLog)}
}

// setLabel tags the sockets opened from now on (the client opens one
// socket per agent for each file, so the label names the file).
func (h *timedHost) setLabel(s string) { h.label.Store(&s) }

func (h *timedHost) logFor(label string) *intervalLog {
	h.mu.Lock()
	defer h.mu.Unlock()
	l := h.logs[label]
	if l == nil {
		l = &intervalLog{}
		h.logs[label] = l
	}
	return l
}

// Listen implements transport.Host.
func (h *timedHost) Listen(port string) (transport.PacketConn, error) {
	pc, err := h.inner.Listen(port)
	if err != nil {
		return nil, err
	}
	c := &timedConn{inner: pc, h: h, id: h.probe.connID.Add(1)}
	if h.logCalls {
		label := ""
		if p := h.label.Load(); p != nil {
			label = *p
		}
		c.log = h.logFor(label)
	}
	return c, nil
}

// Name implements transport.Host.
func (h *timedHost) Name() string { return h.inner.Name() }

// timedConn wraps one socket of a timedHost.
type timedConn struct {
	inner transport.PacketConn
	h     *timedHost
	id    uint64
	log   *intervalLog // nil unless the host logs calls
}

// WriteTo implements transport.PacketConn.
func (c *timedConn) WriteTo(p []byte, addr string) error {
	t0 := time.Now()
	err := c.inner.WriteTo(p, addr)
	t1 := time.Now()
	n := &c.h.net
	n.sendNs.Add(int64(t1.Sub(t0)))
	if c.log != nil {
		c.log.add(c.h.probe.clk.ns(t0), c.h.probe.clk.ns(t1))
	}
	if err != nil {
		return err
	}
	n.pktsOut.Add(1)
	n.bytesOut.Add(int64(len(p)))
	var pkt wire.Packet
	if wire.Unmarshal(p, &pkt) != nil {
		n.badPkts.Add(1)
		return nil
	}
	if pkt.Type != wire.TData {
		n.ctlPkts.Add(1)
		return nil
	}
	n.dataPkts.Add(1)
	n.dataBytes.Add(int64(len(pkt.Payload)))
	if c.h.probe.seen.first(c.id, &pkt.Header) {
		n.dataFirst.Add(1)
	}
	return nil
}

// ReadFrom implements transport.PacketConn.
func (c *timedConn) ReadFrom(p []byte) (int, string, error) {
	t0 := time.Now()
	n, from, err := c.inner.ReadFrom(p)
	t1 := time.Now()
	c.h.net.recvNs.Add(int64(t1.Sub(t0)))
	c.h.net.recvCalls.Add(1)
	if c.log != nil {
		c.log.add(c.h.probe.clk.ns(t0), c.h.probe.clk.ns(t1))
	}
	if err != nil && transport.IsTimeout(err) {
		c.h.net.readTimeouts.Add(1)
	}
	return n, from, err
}

// SetReadDeadline implements transport.PacketConn.
func (c *timedConn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// LocalAddr implements transport.PacketConn.
func (c *timedConn) LocalAddr() string { return c.inner.LocalAddr() }

// Close implements transport.PacketConn.
func (c *timedConn) Close() error { return c.inner.Close() }

// storeCounters are the totals of one wrapped store.
type storeCounters struct {
	readCalls, writeCalls atomic.Int64
	readBytes, wroteBytes atomic.Int64
	busyNs                atomic.Int64 // time inside ReadAt, WriteAt, Truncate and Sync
}

// timedStore wraps a store.Store; the objects it opens are timed too.
type timedStore struct {
	inner store.Store
	clk   clock
	st    storeCounters
	log   intervalLog
}

func newTimedStore(inner store.Store, clk clock) *timedStore {
	return &timedStore{inner: inner, clk: clk}
}

// Open implements store.Store.
func (s *timedStore) Open(name string, create bool) (store.Object, error) {
	o, err := s.inner.Open(name, create)
	if err != nil || o == nil {
		return o, err
	}
	return &timedObject{inner: o, s: s}, nil
}

// Stat implements store.Store.
func (s *timedStore) Stat(name string) (int64, error) { return s.inner.Stat(name) }

// Remove implements store.Store.
func (s *timedStore) Remove(name string) error { return s.inner.Remove(name) }

// List implements store.Store.
func (s *timedStore) List() ([]string, error) { return s.inner.List() }

// busy records one timed call that started at t0.
func (s *timedStore) busy(t0 time.Time) {
	t1 := time.Now()
	s.st.busyNs.Add(int64(t1.Sub(t0)))
	s.log.add(s.clk.ns(t0), s.clk.ns(t1))
}

// timedObject wraps one open store.Object.
type timedObject struct {
	inner store.Object
	s     *timedStore
}

func (o *timedObject) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := o.inner.ReadAt(p, off)
	o.s.busy(t0)
	o.s.st.readCalls.Add(1)
	o.s.st.readBytes.Add(int64(n))
	return n, err
}

func (o *timedObject) WriteAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := o.inner.WriteAt(p, off)
	o.s.busy(t0)
	o.s.st.writeCalls.Add(1)
	o.s.st.wroteBytes.Add(int64(n))
	return n, err
}

func (o *timedObject) Truncate(size int64) error {
	t0 := time.Now()
	err := o.inner.Truncate(size)
	o.s.busy(t0)
	return err
}

func (o *timedObject) Sync() error {
	t0 := time.Now()
	err := o.inner.Sync()
	o.s.busy(t0)
	return err
}

func (o *timedObject) Size() (int64, error) { return o.inner.Size() }

func (o *timedObject) Close() error { return o.inner.Close() }
