package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"swift/internal/agent"
	"swift/internal/core"
	"swift/internal/obs"
	"swift/internal/store"
	"swift/internal/transport"
	"swift/internal/transport/udpnet"
)

// probes is the traced run's instrumentation of one cluster: the
// wrapped client host, agent hosts and stores, and the shared tracer.
type probes struct {
	clk    clock
	net    *netProbe
	client *timedHost
	hosts  []*timedHost
	stores []*timedStore
	tracer *obs.Tracer
}

func newProbes() *probes {
	clk := clock{epoch: time.Now()}
	return &probes{
		clk: clk,
		net: newNetProbe(clk),
		// Rate 1 keeps every op. The bounds are raised so the collector
		// keeps every span of the traced phase in memory until the end.
		tracer: obs.NewTracer(obs.TracerConfig{Rate: 1, MaxOpen: 4096, MaxSpans: 1 << 14, Keep: 1 << 30}),
	}
}

// cluster is one in-process Swift deployment on loopback UDP: storage
// agents over file stores in their own directories, and one client.
type cluster struct {
	dir    string
	stores []*store.FileStore
	agents []*agent.Agent
	client *core.Client
	host   transport.Host // the client's host (wrapped when traced)
	pr     *probes        // nil when untraced
}

// startCluster brings up w's deployment under dir. With pr set, every
// host and store is wrapped and the tracer is installed.
func startCluster(dir string, w *workload, pr *probes) (*cluster, error) {
	c := &cluster{dir: dir, pr: pr}
	var tracer *obs.Tracer
	if pr != nil {
		tracer = pr.tracer
	}
	addrs := make([]string, w.agents)
	for i := range addrs {
		fs, err := store.NewFileStore(filepath.Join(dir, fmt.Sprintf("agent%d", i)))
		if err != nil {
			c.close()
			return nil, err
		}
		c.stores = append(c.stores, fs)
		var host transport.Host = udpnet.NewHost("127.0.0.1")
		var st store.Store = fs
		if pr != nil {
			th := newTimedHost(host, pr.net, false)
			ts := newTimedStore(fs, pr.clk)
			pr.hosts = append(pr.hosts, th)
			pr.stores = append(pr.stores, ts)
			host, st = th, ts
		}
		// Port 0: concurrent runs on one machine must not collide.
		a, err := agent.New(host, st, agent.Config{Port: "0", Tracer: tracer})
		if err != nil {
			c.close()
			return nil, err
		}
		c.agents = append(c.agents, a)
		addrs[i] = a.Addr()
	}
	c.host = udpnet.NewHost("127.0.0.1")
	if pr != nil {
		pr.client = newTimedHost(c.host, pr.net, true)
		c.host = pr.client
	}
	cfg := core.Config{
		Host:         c.host,
		Agents:       addrs,
		ParityShards: w.parity,
		CacheSize:    w.cacheSize,
		Tracer:       tracer,
	}
	cl, err := core.Dial(cfg)
	if err != nil {
		c.close()
		return nil, err
	}
	c.client = cl
	return c, nil
}

// open opens (creating) the named object, labelling the client sockets
// it opens with the name so the trace analysis can attribute their time.
func (c *cluster) open(name string) (*core.File, error) {
	if c.pr != nil {
		c.pr.client.setLabel(name)
	}
	f, err := c.client.Open(name, core.OpenFlags{Create: true})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", name, err)
	}
	return f, nil
}

// crash stops agent i the way a host failure would and tells the client,
// as its health monitor would after failed probes.
func (c *cluster) crash(i int) error {
	if err := c.agents[i].Close(); err != nil {
		return fmt.Errorf("crash agent %d: %w", i, err)
	}
	c.client.MarkDown(i, true)
	return nil
}

// storedBytes sums the sizes of every fragment file of every agent.
func (c *cluster) storedBytes() (int64, error) {
	var total int64
	for _, fs := range c.stores {
		ents, err := os.ReadDir(fs.Dir())
		if err != nil {
			return 0, err
		}
		for _, e := range ents {
			fi, err := e.Info()
			if err != nil {
				return 0, err
			}
			total += fi.Size()
		}
	}
	return total, nil
}

// close stops the client and the agents and removes the store files.
func (c *cluster) close() error {
	var errs []error
	if c.client != nil {
		errs = append(errs, c.client.Close())
	}
	for _, a := range c.agents {
		errs = append(errs, a.Close())
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}
