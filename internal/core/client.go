// Package core implements the paper's primary contribution: the Swift
// distribution agent. It is the client-side engine that stripes an object
// over a set of storage agents and drives them in parallel, executing the
// transfer plan with no further intervention by the storage mediator.
//
// The engine provides Unix file semantics (open, close, read, write, seek)
// on striped objects, the light-weight datagram protocol of §3.1 (reads
// with client-side resubmission and one outstanding request per agent;
// writes streamed at full speed with explicit acknowledgement and
// agent-driven resend requests), and the computed-copy redundancy of §2:
// rotating XOR parity with degraded-mode reads, degraded writes, and
// fragment rebuild.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"swift/internal/backoff"
	"swift/internal/cache"
	"swift/internal/ec"
	"swift/internal/mediator"
	"swift/internal/obs"
	"swift/internal/stripe"
	"swift/internal/transport"
	"swift/internal/wire"
)

// Errors returned by the engine.
var (
	ErrAgentDown    = errors.New("core: storage agent unreachable")
	ErrNoQuorum     = errors.New("core: too many failed agents for this layout")
	ErrRetriesSpent = errors.New("core: request retries exhausted")
	ErrClosed       = errors.New("core: file closed")
)

// Config configures a client (the distribution agent): the transfer
// plan it runs (agents, striping unit, redundancy), the protocol's
// timers, the cache tier, the background health monitor and telemetry.
// Zero values select defaults; the swift facade re-exports it as
// swift.Config.
type Config struct {
	// Host is the client machine's network attachment.
	Host transport.Host
	// Agents lists the storage agents' control addresses ("host:port").
	// Order matters: it defines the striping order and must be
	// consistent across clients of the same objects.
	Agents []string
	// StripeUnit is the striping unit in bytes (default 32 KiB). The
	// storage mediator picks it per session when rate requirements are
	// declared (see ApplyPlan).
	StripeUnit int64
	// ParityShards selects computed-copy redundancy as an m+k erasure
	// scheme: the number of rotating parity units per stripe row (k),
	// each on its own agent. Zero disables redundancy; 1 is the paper's
	// single XOR computed copy, tolerating one failed agent; 2 or more
	// selects Reed–Solomon coding tolerating that many simultaneous
	// agent failures. Requires len(Agents) >= ParityShards+2.
	ParityShards int
	// DataShards, when non-zero, asserts the number of data units per
	// stripe row (m). It is always len(Agents)-ParityShards; Dial
	// rejects a mismatch so a misconfigured agent list fails loudly
	// instead of silently changing the layout.
	DataShards int
	// SyncWrites makes agents commit each write burst to stable storage
	// before acknowledging.
	SyncWrites bool
	// RequestBytes is the largest read or write burst requested from
	// one agent at a time (default 57344 = 42 full packets). Negative
	// values are rejected.
	RequestBytes int64
	// RetryTimeout is the base wait for progress on a burst before
	// resubmitting (default 250ms). Consecutive silent timeouts back off
	// exponentially (with jitter) up to 8×RetryTimeout, so a dead agent
	// is not bombarded on the shared medium.
	RetryTimeout time.Duration
	// MaxRetries sizes the retransmission budget: an operation gives up
	// on an agent once roughly MaxRetries×RetryTimeout elapses with no
	// progress (default 40). Progress refreshes the budget.
	MaxRetries int
	// ReadAhead fetches sequential reads in windows of this many bytes
	// (0 disables). Small sequential readers gain large-burst rates;
	// detected sequential streams are additionally prefetched
	// asynchronously into the block cache ahead of the reader, while
	// random reads bypass it.
	ReadAhead int64
	// CacheSize bounds the client block cache in bytes. The cache is on
	// when CacheSize, ReadAhead or WriteBehindMax is > 0; zero auto-sizes
	// it from ReadAhead and WriteBehindMax (at least 8 MiB). With
	// CacheSize > 0 alone, re-reads hit memory. Negative values are
	// rejected.
	CacheSize int64
	// WriteBehindMax, when > 0, absorbs writes into the cache and flushes
	// them to the agents in the background in offset order, bounding
	// dirty bytes at this budget: writers park once it is exceeded.
	// Close and Sync still guarantee durability before returning; a
	// failed write-back re-surfaces on the next write or Sync. Zero
	// keeps write-through.
	WriteBehindMax int64
	// CacheSync, when non-nil, is the cache-coherence hook: called once
	// per health round (and on Close) with the cache's resident objects
	// and this client's recent writes, it returns the entries that are
	// stale and must be invalidated. Wire a MediatorBroker's CacheSync
	// here so the mediator tier propagates cross-client invalidations.
	CacheSync func(cached []mediator.CachedObject, written []string) ([]mediator.CachedObject, error)
	// WritePace inserts a delay between outgoing data packets (the
	// prototype's kernel-friendly wait loop); Sleep implements it
	// (default time.Sleep).
	WritePace time.Duration
	Sleep     func(time.Duration)
	// HealthInterval, when > 0, starts the background health monitor:
	// every interval it probes all agents, demotes silent ones through the
	// failure-domain lifecycle (healthy → suspect → down), and re-admits
	// recovered ones automatically — reopening each open file's sessions
	// and, with AutoRebuild, reconstructing the agent's fragments from
	// parity first. Close stops it.
	HealthInterval time.Duration
	// AutoRebuild makes re-admission rebuild a returning agent's
	// fragments from the survivors before it serves reads again
	// (requires ParityShards > 0).
	AutoRebuild bool
	// ScrubInterval, when > 0, runs a background scrub over every open
	// file at this period: each stripe row is read from all agents,
	// verified against the integrity envelope and the parity equation,
	// and (with parity) repaired in place — corrupt units reconstructed
	// from the surviving units of their row, stale parity recomputed
	// from the data. Close stops it.
	ScrubInterval time.Duration
	// OpTimeout, when > 0, gives every ReadAt/WriteAt a deadline budget.
	// The remaining budget travels on each request packet, so agents shed
	// work the client has already abandoned; an op past its budget fails
	// with ErrDeadline without marking any agent failed.
	OpTimeout time.Duration
	// HedgeReads races a parity reconstruction against a straggling agent
	// once a read burst exceeds twice its p99 latency (requires
	// ParityShards > 0). Hedges spend the retry budget, so a broadly
	// slow cluster cannot amplify load.
	HedgeReads bool
	// BreakerThreshold consecutive overload signals (pushbacks, retry
	// give-ups) trip an agent's circuit breaker open for 2s; while open,
	// parity-protected reads reconstruct around the agent instead of
	// waiting on it. Default 5.
	BreakerThreshold int
	// Heartbeat, when non-nil together with HealthInterval, is invoked
	// once per health-probe round — the hook for renewing a storage
	// mediator session lease (mediator.Renew) while this client lives.
	Heartbeat func()
	// Logf receives diagnostics.
	Logf func(format string, args ...any)
	// Verbose additionally routes burst-level trace events (failovers,
	// timeouts, lifecycle transitions) to Logf, prefixed "trace:".
	Verbose bool
	// Obs, when non-nil, is the metric registry the client registers its
	// telemetry in, for export over HTTP (see internal/obs.Serve). Nil
	// gets a private registry; telemetry is always recorded and available
	// through Stats.
	Obs *obs.Registry
	// TraceRate enables distributed tracing: every client operation
	// (open, read, write, sync, scrub) records a span tree across the
	// client's internal layers and — over the wire — the storage agents
	// and mediator replicas serving it. Rate is the head-sampling
	// probability in [0,1]; independent of it, the tail sampler keeps
	// ops that errored, retried (timeouts, resends, repairs, failovers),
	// or ran slower than the operation's live p99. Zero disables tracing
	// with no per-packet cost.
	TraceRate float64
	// Tracer, when non-nil, overrides TraceRate: the client joins an
	// existing tracer (shared with in-process agents or mediators, so
	// one collector assembles the full cross-layer tree).
	Tracer *obs.Tracer
}

// Protocol and overload-control tuning, the same for every client.
const (
	// writeWindow is the number of write bursts kept in flight per agent.
	writeWindow = 2
	// probeRetries sizes each health probe's retry budget: roughly
	// 2×RetryTimeout before an agent is written off for the round.
	probeRetries = 2
	// hedgeMultiplier scales an agent's p99 read-burst latency into the
	// hedge delay.
	hedgeMultiplier = 2
	// retryBudgetCap and retryBudgetRatio bound retry amplification: a
	// token bucket holding at most retryBudgetCap tokens, refilled by
	// retryBudgetRatio per fresh operation, pays for every failover
	// retry and hedge.
	retryBudgetCap   = 1000
	retryBudgetRatio = 0.5
	// breakerCooldown is how long a tripped breaker stays open before
	// admitting a half-open trial burst.
	breakerCooldown = 2 * time.Second
)

func (c *Config) fill() error {
	if c.Host == nil {
		return errors.New("core: config needs a Host")
	}
	if len(c.Agents) == 0 {
		return errors.New("core: config needs at least one agent")
	}
	if k := c.ParityShards; c.DataShards > 0 && c.DataShards+k != len(c.Agents) {
		return fmt.Errorf("core: %d data + %d parity shards need %d agents, have %d",
			c.DataShards, k, c.DataShards+k, len(c.Agents))
	}
	if c.RequestBytes < 0 {
		return fmt.Errorf("core: negative RequestBytes %d", c.RequestBytes)
	}
	if c.CacheSize < 0 {
		return fmt.Errorf("core: negative CacheSize %d", c.CacheSize)
	}
	if c.StripeUnit == 0 {
		c.StripeUnit = 32 * 1024
	}
	if c.RequestBytes == 0 {
		c.RequestBytes = 42 * wire.MaxPayload
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 250 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 40
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	return c.layout().Validate()
}

// ApplyPlan configures the client from an admitted transfer plan: agent
// set (striping order), striping unit, and redundancy scheme.
func (c *Config) ApplyPlan(p *mediator.Plan) {
	c.Agents = append([]string(nil), p.Addrs...)
	c.StripeUnit = p.Unit
	c.ParityShards = p.ParityShards
	c.DataShards = len(p.Addrs) - p.ParityShards
}

// cacheEnabled reports whether the client runs the block cache tier.
func (c *Config) cacheEnabled() bool {
	return c.CacheSize > 0 || c.ReadAhead > 0 || c.WriteBehindMax > 0
}

// layout derives the striping layout from the filled config.
func (c *Config) layout() stripe.Layout {
	return stripe.Layout{
		Unit:        c.StripeUnit,
		Agents:      len(c.Agents),
		ParityUnits: c.ParityShards,
	}
}

// Client is a distribution agent bound to a fixed set of storage agents.
type Client struct {
	cfg    Config
	layout stripe.Layout
	codec  ec.Codec        // row erasure codec; nil without parity
	bo     *backoff.Policy // shared retransmission backoff schedule

	mu     sync.Mutex
	ctl    transport.PacketConn // shared control conn for stat/remove; guarded by mu
	health []agentHealth        // per-agent failure-domain state; guarded by mu
	files  map[*File]struct{}   // open files, for automatic re-admission; guarded by mu
	req    atomic.Uint32

	// Background health and scrub loops (see health.go).
	monStop chan struct{}  // closed to stop them; nil when none run; guarded by mu
	monWG   sync.WaitGroup // the running loops

	metrics   Metrics
	tel       *telemetry
	tracer    *obs.Tracer // nil when tracing is disabled
	traceStop func()      // stops the Verbose buffered sink drain

	budget   *tokenBucket // shared retry/hedge budget (see overload.go)
	breakers []breaker    // per-agent circuit breakers

	// Block cache tier (nil when caching is off; see cachetier.go).
	cache        *cache.Cache
	prefetchQ    chan prefetchReq // read-ahead suggestions to the workers
	prefetchStop chan struct{}
	prefetchWG   sync.WaitGroup
	flushKick    chan struct{} // nudges the write-behind flusher
	flushStop    chan struct{}
	flushDone    chan struct{}
	cacheOnce    sync.Once // guards cache-worker teardown

	cohMu   sync.Mutex
	written map[string]struct{} // objects written since the last successful coherence round; guarded by cohMu
}

// Metrics counts protocol events, for diagnostics and calibration.
type Metrics struct {
	ReadBursts    atomic.Int64 // read requests issued
	ReadTimeouts  atomic.Int64 // read bursts that needed resubmission
	WriteBursts   atomic.Int64 // write bursts issued
	WriteTimeouts atomic.Int64 // write bursts re-announced after silence
	ResendAsks    atomic.Int64 // agent resend requests honoured
	DataPackets   atomic.Int64 // data packets sent (including resends)
	Backoffs      atomic.Int64 // retransmission waits grown beyond the base timeout
	Probes        atomic.Int64 // health probes sent (monitor and Ping)
	Readmissions  atomic.Int64 // agents automatically returned to service
	Corruptions   atomic.Int64 // at-rest corruption events reported by agents
	Repairs       atomic.Int64 // stripe units rewritten from parity (read-repair and scrub)
	Unrepairable  atomic.Int64 // corruption events parity could not repair
	ScrubRows     atomic.Int64 // stripe rows verified by the scrubber
	Pushbacks     atomic.Int64 // explicit pushback replies received from agents
	Hedges        atomic.Int64 // read bursts hedged after the straggler delay
	HedgeWins     atomic.Int64 // hedged reads completed by reconstruction
	BudgetDenials atomic.Int64 // retries or hedges denied by the retry budget
	BreakerTrips  atomic.Int64 // per-agent circuit breakers tripped open
}

// Dial creates a client and starts the background loops cfg asks for
// (HealthInterval, ScrubInterval); Close stops them. Dial itself sends
// nothing: agents are contacted when objects are opened or probed.
func Dial(cfg Config) (*Client, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ctl, err := cfg.Host.Listen("0")
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	c := &Client{
		cfg:      cfg,
		layout:   cfg.layout(),
		bo:       backoff.New(cfg.RetryTimeout, 8*cfg.RetryTimeout),
		ctl:      ctl,
		health:   make([]agentHealth, len(cfg.Agents)),
		files:    make(map[*File]struct{}),
		budget:   newTokenBucket(retryBudgetCap, retryBudgetRatio),
		breakers: make([]breaker, len(cfg.Agents)),
	}
	if k := c.layout.ParityUnits; k > 0 {
		c.codec, err = ec.New(c.layout.DataPerRow(), k)
		if err != nil {
			ctl.Close()
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	c.tel = newTelemetry(cfg.Obs, cfg.Agents, &c.metrics, c.codec, c.budget)
	c.initCache()
	c.tracer = cfg.Tracer
	if c.tracer == nil {
		c.tracer = obs.NewTracer(obs.TracerConfig{Rate: cfg.TraceRate})
		c.tracer.Register(cfg.Obs)
	}
	if cfg.Verbose {
		logf := c.cfg.Logf
		// Logf implementations may block (files, test loggers); the
		// buffered hand-off keeps event emission non-blocking on the data
		// path, dropping on overflow instead of stalling a transfer.
		c.traceStop = c.tel.trace.SetBufferedSink(func(e obs.Event) { logf("trace: %s", e.String()) }, 256)
	}
	c.startMonitor()
	return c, nil
}

// Layout returns the client's striping layout.
func (c *Client) Layout() stripe.Layout { return c.layout }

// parityK returns the number of parity units per stripe row (0 without
// parity) — the number of simultaneous agent failures the layout masks.
func (c *Client) parityK() int { return c.layout.ParityUnits }

// Scheme describes the redundancy scheme: "m+k" (data+parity units per
// row) with parity enabled, "none" without.
func (c *Client) Scheme() string {
	if c.codec == nil {
		return "none"
	}
	return c.codec.String()
}

// ECStats snapshots the erasure codec's work counters. Without parity
// it returns zeros.
func (c *Client) ECStats() ec.Stats {
	if c.codec == nil {
		return ec.Stats{}
	}
	return c.codec.Stats()
}

// Close stops the health and scrub loops (if running) and releases the
// client's control endpoint. Open files remain usable until closed
// individually.
func (c *Client) Close() error {
	c.stopMonitor()
	// Declare any writes still pending a coherence round, then stop the
	// cache workers (the flusher drains on its way out).
	c.CoherenceSync()
	c.stopCacheWorkers()
	if c.traceStop != nil {
		c.traceStop()
	}
	// Holding mu across Close is deliberate: it serializes teardown
	// against any in-flight control RPC on the shared conn.
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctl.Close() //lint:allow lockio teardown path; waits out in-flight control RPCs by design
}

// MarkDown forces agent i's state: failed (true) or recovered (false).
// With parity enabled, reads and writes continue in degraded mode around
// a single failed agent. Normally the failure-domain lifecycle manages
// states automatically; MarkDown remains for drills and administrative
// fencing.
func (c *Client) MarkDown(i int, down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.health) {
		return
	}
	if down {
		c.setStateLocked(i, StateDown, "administratively marked down")
	} else {
		c.setStateLocked(i, StateHealthy, "")
	}
}

// Down reports whether agent i is in the Down state.
func (c *Client) Down(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.health[i].state == StateDown
}

// downSnapshot returns per-agent Down flags.
func (c *Client) downSnapshot() []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]bool, len(c.health))
	for i := range c.health {
		out[i] = c.health[i].state == StateDown
	}
	return out
}

// backoff returns the retransmission wait for the given consecutive
// silent-timeout count (0 = base RetryTimeout): capped exponential growth
// with ±25% jitter so colliding clients desynchronize.
func (c *Client) backoff(level int) time.Duration { return c.bo.Delay(level) }

// retryBudget is the no-progress interval after which an operation gives
// up on an agent.
func (c *Client) retryBudget() time.Duration {
	return time.Duration(c.cfg.MaxRetries) * c.cfg.RetryTimeout
}

func (c *Client) nextReq() uint32 { return c.req.Add(1) }

// OpenFlags control Open.
type OpenFlags struct {
	Create   bool
	Truncate bool
	// Trace, when valid, parents the open's span under the caller's span
	// (the facade's mount span); zero roots a fresh trace.
	Trace obs.SpanContext
}

// startSpan roots a span for one client operation, joining parent when it
// names a trace. Returns nil (a no-op span) when tracing is disabled.
func (c *Client) startSpan(parent obs.SpanContext, name string) *obs.Span {
	if parent.Valid() {
		return c.tracer.StartRemote(parent, "core", name, -1)
	}
	return c.tracer.StartOp("core", name)
}

// Open establishes per-agent sessions for the named object and returns a
// File with Unix semantics. With parity enabled, Open tolerates up to k
// (= ParityShards) unreachable agents and enters degraded mode.
func (c *Client) Open(name string, flags OpenFlags) (*File, error) {
	start := time.Now()
	sp := c.startSpan(flags.Trace, "open")
	defer sp.Finish()
	sp.Annotate("open %s", name)
	down := c.downSnapshot()
	sessions := make([]*agentSession, len(c.cfg.Agents))
	errs := make([]error, len(c.cfg.Agents))
	var wg sync.WaitGroup
	for i, addr := range c.cfg.Agents {
		if down[i] {
			errs[i] = ErrAgentDown
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			as := sp.StartChild("agent_open", i)
			sessions[i], errs[i] = c.openSession(i, addr, name, flags, as.Context())
			as.SetError(errs[i])
			as.Finish()
		}(i, addr)
	}
	wg.Wait()

	failed := 0
	for i := range errs {
		if errs[i] != nil {
			failed++
			if !down[i] {
				c.noteFailure(i, errs[i])
			}
			c.traceEvent("open_fail", i, "open %s: %v", name, errs[i])
			c.cfg.Logf("core: open %s on agent %d: %v", name, i, errs[i])
		}
	}
	closeAll := func() {
		for _, s := range sessions {
			if s != nil {
				s.close()
			}
		}
	}
	if failed > c.parityK() {
		closeAll()
		for i, err := range errs {
			if err != nil {
				werr := fmt.Errorf("core: open %s on agent %d (%s): %w",
					name, i, c.cfg.Agents[i], err)
				sp.SetError(werr)
				return nil, werr
			}
		}
	}
	if failed > 0 {
		// Degraded open: tolerated by parity, but worth keeping the trace.
		sp.MarkRetry()
		sp.Annotate("degraded open: %d agents unavailable", failed)
	}

	frag := make([]int64, len(sessions))
	for i, s := range sessions {
		if s == nil {
			frag[i] = -1
			continue
		}
		frag[i] = s.fragSize
	}
	f := &File{
		c:        c,
		name:     name,
		sessions: sessions,
		size:     c.layout.SizeFromFragments(frag),
	}
	if flags.Truncate {
		f.size = 0
	}
	if c.cache != nil {
		f.cobj = c.cache.Open(name)
		if flags.Truncate {
			// Cached blocks of the previous incarnation are stale.
			f.cobj.Invalidate(0, 1<<62)
		}
	}
	c.mu.Lock()
	c.files[f] = struct{}{}
	c.mu.Unlock()
	c.tel.openFiles.Add(1)
	observeSpan(c.tel.openLat, start, sp)
	return f, nil
}

// dropFile unregisters a closed file from the re-admission set.
func (c *Client) dropFile(f *File) {
	c.mu.Lock()
	delete(c.files, f)
	c.mu.Unlock()
	c.tel.openFiles.Add(-1)
}

// openFiles snapshots the registered open files.
func (c *Client) openFiles() []*File {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*File, 0, len(c.files))
	for f := range c.files {
		out = append(out, f)
	}
	return out
}

// agentSession is the client side of one open file on one agent: a
// dedicated local port paired with the agent's private port.
type agentSession struct {
	idx      int
	conn     transport.PacketConn
	ctlAddr  string // agent well-known address
	dataAddr string // agent private address for this file
	handle   uint64
	fragSize int64
	buf      []byte // receive buffer, owned by the session's worker
	sendBuf  []byte // marshal buffer, owned by the session's worker
}

func (s *agentSession) close() {
	if s.conn != nil {
		s.conn.Close()
	}
}

// sessionAlive reports whether s's handle still answers: a TSync on the
// session's private port must come back from the same handle. Agents
// start their handle numbering at a random point, so a session opened by
// a restarted agent on a reused port cannot pass for the old one. A
// silent or mismatched reply counts as dead.
func (c *Client) sessionAlive(s *agentSession) bool {
	reqID := c.nextReq()
	reply, err := c.rpcAttempts(s.conn, s.dataAddr, &wire.Packet{
		Header: wire.Header{Type: wire.TSync, ReqID: reqID, Handle: s.handle},
	}, reqID, 4)
	return err == nil && reply.Type == wire.TSyncReply && reply.Handle == s.handle
}

// openSession performs the open handshake with one agent, with
// retransmission. tctx, when valid, rides the TOpen packet so the agent's
// service span joins the caller's trace.
func (c *Client) openSession(idx int, addr, name string, flags OpenFlags, tctx obs.SpanContext) (*agentSession, error) {
	conn, err := c.cfg.Host.Listen("0")
	if err != nil {
		return nil, err
	}
	var f uint16
	if flags.Create {
		f |= wire.FCreate
	}
	if flags.Truncate {
		f |= wire.FTrunc
	}
	reqID := c.nextReq()
	req := &wire.Packet{
		Header:  wire.Header{Type: wire.TOpen, ReqID: reqID, Flags: f},
		Trace:   tctx,
		Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: name}),
	}
	reply, err := c.rpc(conn, addr, req, reqID)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if reply.Type != wire.TOpenReply {
		conn.Close()
		return nil, fmt.Errorf("core: unexpected %v to open", reply.Type)
	}
	or, err := wire.ParseOpenReply(reply.Payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	ahost, _, _ := transport.SplitAddr(addr)
	return &agentSession{
		idx:      idx,
		conn:     conn,
		ctlAddr:  addr,
		dataAddr: transport.JoinAddr(ahost, or.Port),
		handle:   reply.Handle,
		fragSize: or.Size,
		buf:      make([]byte, wire.MaxPacket),
		sendBuf:  make([]byte, 0, wire.MaxPacket),
	}, nil
}

// rpc sends req to addr on conn and waits for the matching reply,
// retransmitting on timeout. TError replies are converted to errors.
func (c *Client) rpc(conn transport.PacketConn, addr string, req *wire.Packet, reqID uint32) (*wire.Packet, error) {
	return c.rpcAttempts(conn, addr, req, reqID, c.cfg.MaxRetries)
}

// rpcAttempts is rpc with an explicit retransmission budget of roughly
// retries×RetryTimeout. Consecutive timeouts retransmit with capped
// exponential backoff and jitter so a dead agent is not hammered at a
// fixed cadence — the control plane shares the data path's storm
// avoidance.
func (c *Client) rpcAttempts(conn transport.PacketConn, addr string, req *wire.Packet, reqID uint32, retries int) (*wire.Packet, error) {
	rbuf := make([]byte, wire.MaxPacket)
	var pkt wire.Packet
	giveUp := time.Now().Add(time.Duration(retries) * c.cfg.RetryTimeout)
	for attempt := 0; ; attempt++ {
		// Each (re)transmission carries the remaining retry budget in
		// the deadline extension — the same contract as medrpc — so an
		// agent that dequeues a retransmit after the client's give-up
		// point sheds it instead of serving a reply nobody reads.
		if rem := time.Until(giveUp); rem > 0 {
			req.Deadline = rem
		} else {
			req.Deadline = 0
		}
		buf, err := wire.Marshal(req)
		if err != nil {
			return nil, err
		}
		if err := conn.WriteTo(buf, addr); err != nil {
			return nil, err
		}
		if attempt > 0 {
			c.metrics.Backoffs.Add(1)
		}
		deadline := time.Now().Add(c.backoff(attempt))
		for {
			conn.SetReadDeadline(deadline)
			n, _, err := conn.ReadFrom(rbuf)
			if err != nil {
				if transport.IsTimeout(err) {
					break // retransmit
				}
				return nil, err
			}
			if err := wire.Unmarshal(rbuf[:n], &pkt); err != nil {
				continue
			}
			if pkt.ReqID != reqID {
				continue // stale
			}
			if pkt.Type == wire.TError {
				return nil, wire.ParseError(pkt.Payload)
			}
			out := pkt
			out.Payload = append([]byte(nil), pkt.Payload...)
			return &out, nil
		}
		if !time.Now().Before(giveUp) {
			return nil, ErrAgentDown
		}
	}
}

// Stat returns the logical size of the named object, or store.ErrNotExist
// translated as a RemoteError if no agent has a fragment.
func (c *Client) Stat(name string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	frag := make([]int64, len(c.cfg.Agents))
	exists := false
	for i, addr := range c.cfg.Agents {
		if c.health[i].state == StateDown {
			frag[i] = -1
			continue
		}
		reqID := c.nextReq()
		reply, err := c.rpc(c.ctl, addr, &wire.Packet{
			Header:  wire.Header{Type: wire.TStat, ReqID: reqID},
			Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: name}),
		}, reqID)
		if err != nil {
			return 0, fmt.Errorf("core: stat %s on agent %d: %w", name, i, err)
		}
		sr, err := wire.ParseStatReply(reply.Payload)
		if err != nil {
			return 0, err
		}
		if sr.Exists {
			exists = true
			frag[i] = sr.Size
		}
	}
	if !exists {
		return 0, &wire.RemoteError{Msg: "object does not exist"}
	}
	return c.layout.SizeFromFragments(frag), nil
}

// List returns the union of object names across all reachable agents,
// sorted. An object striped over the set appears once.
func (c *Client) List() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := make(map[string]bool)
	for i, addr := range c.cfg.Agents {
		if c.health[i].state == StateDown {
			continue
		}
		names, err := c.listAgentLocked(addr)
		if err != nil {
			return nil, fmt.Errorf("core: list agent %d: %w", i, err)
		}
		for _, n := range names {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// listAgentLocked collects one agent's TListReply stream, retransmitting
// the request until every packet up to the FLast-marked one has been seen.
// c.mu must be held: it serializes use of the shared control conn.
func (c *Client) listAgentLocked(addr string) ([]string, error) {
	reqID := c.nextReq()
	req, err := wire.Marshal(&wire.Packet{Header: wire.Header{Type: wire.TList, ReqID: reqID}})
	if err != nil {
		return nil, err
	}
	parts := make(map[int64][]string)
	last := int64(-1)
	complete := func() bool {
		if last < 0 {
			return false
		}
		for s := int64(0); s <= last; s++ {
			if _, ok := parts[s]; !ok {
				return false
			}
		}
		return true
	}
	rbuf := make([]byte, wire.MaxPacket)
	var pkt wire.Packet
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if err := c.ctl.WriteTo(req, addr); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(c.cfg.RetryTimeout)
		for !complete() {
			c.ctl.SetReadDeadline(deadline)
			n, _, err := c.ctl.ReadFrom(rbuf)
			if err != nil {
				if transport.IsTimeout(err) {
					break
				}
				return nil, err
			}
			if uerr := wire.Unmarshal(rbuf[:n], &pkt); uerr != nil || pkt.ReqID != reqID {
				continue
			}
			if pkt.Type == wire.TError {
				return nil, wire.ParseError(pkt.Payload)
			}
			if pkt.Type != wire.TListReply {
				continue
			}
			names, perr := wire.ParseNames(pkt.Payload)
			if perr != nil {
				continue
			}
			parts[pkt.Offset] = names
			if pkt.Flags&wire.FLast != 0 {
				last = pkt.Offset
			}
		}
		if complete() {
			var out []string
			for s := int64(0); s <= last; s++ {
				out = append(out, parts[s]...)
			}
			return out, nil
		}
	}
	return nil, ErrAgentDown
}

// AgentStatus is one agent's health probe result.
type AgentStatus struct {
	Addr     string
	Alive    bool
	RTT      time.Duration
	Objects  uint32
	Sessions uint32
	Bytes    int64
}

// Ping probes every agent (including ones marked down) concurrently and
// returns their statuses in agent order. It holds no client lock and uses
// a private endpoint per probe, so a dead agent delays the result by at
// most its own probe budget and never stalls other client operations.
func (c *Client) Ping() []AgentStatus {
	out := make([]AgentStatus, len(c.cfg.Agents))
	var wg sync.WaitGroup
	for i, addr := range c.cfg.Agents {
		out[i].Addr = addr
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			pr, rtt, err := c.probeAgent(addr, 2)
			if err != nil {
				return
			}
			out[i].Alive = true
			out[i].RTT = rtt
			out[i].Objects = pr.Objects
			out[i].Sessions = pr.Sessions
			out[i].Bytes = pr.Bytes
		}(i, addr)
	}
	wg.Wait()
	return out
}

// probeAgent sends one TPing to addr on a private ephemeral endpoint with
// the given retry budget. It is safe to call concurrently and takes no
// client lock.
func (c *Client) probeAgent(addr string, retries int) (wire.PingReply, time.Duration, error) {
	conn, err := c.cfg.Host.Listen("0")
	if err != nil {
		return wire.PingReply{}, 0, err
	}
	defer conn.Close()
	c.metrics.Probes.Add(1)
	reqID := c.nextReq()
	start := time.Now()
	reply, err := c.rpcAttempts(conn, addr, &wire.Packet{
		Header: wire.Header{Type: wire.TPing, ReqID: reqID},
	}, reqID, retries)
	if err != nil {
		return wire.PingReply{}, 0, err
	}
	if reply.Type != wire.TPingReply {
		return wire.PingReply{}, 0, fmt.Errorf("core: unexpected %v to ping", reply.Type)
	}
	pr, err := wire.ParsePingReply(reply.Payload)
	if err != nil {
		return wire.PingReply{}, 0, err
	}
	rtt := time.Since(start)
	c.tel.probeLat.Observe(rtt)
	return pr, rtt, nil
}

// Remove deletes the named object's fragments from all reachable agents.
func (c *Client) Remove(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for i, addr := range c.cfg.Agents {
		if c.health[i].state == StateDown {
			continue
		}
		reqID := c.nextReq()
		_, err := c.rpc(c.ctl, addr, &wire.Packet{
			Header:  wire.Header{Type: wire.TRemove, ReqID: reqID},
			Payload: wire.AppendOpenRequest(nil, &wire.OpenRequest{Name: name}),
		}, reqID)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: remove %s on agent %d: %w", name, i, err)
		}
	}
	return firstErr
}
