package simswift

import (
	"time"

	"swift/internal/sim"
	"swift/internal/stripe"
)

// §6.1.1 simulator enhancement — implemented future work: "the simulator
// needs additional parameters to incorporate the cost of computing this
// derived data [the parity check data]. With these enhancements in place
// we plan to study the impact that computing the check data has on
// data-rates."
//
// With parity enabled, every write request additionally (a) charges the
// client processor the XOR cost over the request's bytes, and (b) ships
// and writes one rotating parity unit per stripe row, laid out exactly as
// the prototype's engine lays them out (internal/stripe). Healthy reads
// are unaffected, as in the real engine.

// ParityConfig extends Config with computed-copy redundancy costs.
type ParityConfig struct {
	Config
	// Parity enables the redundancy write path.
	Parity bool
	// ParityInstrPerByte is the XOR cost (default 1 instruction/byte,
	// symmetric with the protocol's copy cost).
	ParityInstrPerByte float64
}

func (c ParityConfig) filled() ParityConfig {
	c.Config = c.Config.filled()
	if c.ParityInstrPerByte == 0 {
		c.ParityInstrPerByte = 1
	}
	return c
}

// parityUnitsPerDisk returns each disk's unit count for one request,
// including the rotating parity units.
func parityUnitsPerDisk(cfg ParityConfig) []int {
	l := stripe.Layout{Unit: cfg.Unit, Agents: cfg.Disks, ParityUnits: 1}
	per := make([]int, cfg.Disks)
	for i, frag := range l.FragmentSizes(cfg.RequestBytes) {
		per[i] = int((frag + cfg.Unit - 1) / cfg.Unit)
	}
	return per
}

// RunParity simulates the configuration with redundancy costs applied to
// writes. It mirrors Run otherwise.
func RunParity(cfg ParityConfig, lambda float64) Result {
	cfg = cfg.filled()
	base := cfg.Config
	m := newModel(base)
	eng := m.eng

	parityCPU := time.Duration(
		cfg.ParityInstrPerByte * float64(base.RequestBytes) / base.MIPS * float64(time.Second))

	writeParity := func(p *sim.Proc, done func()) {
		per := parityUnitsPerDisk(cfg)
		acks := eng.NewGate()
		arrived := make([]*sim.Gate, base.Disks)
		involved := 0
		for i := 0; i < base.Disks; i++ {
			if per[i] == 0 {
				continue
			}
			involved++
			arrived[i] = eng.NewGate()
			arrived[i].Add(per[i])
		}
		acks.Add(involved)

		// The client computes the check data before transmission.
		if cfg.Parity {
			m.client.Use(p, parityCPU)
		}
		for i := 0; i < base.Disks; i++ {
			if per[i] == 0 {
				continue
			}
			i, n := i, per[i]
			eng.Go(func(a *sim.Proc) {
				arrived[i].Wait(a)
				m.disks[i].Acquire(a)
				for u := 0; u < n; u++ {
					a.Sleep(base.Drive.AccessTime(eng.Rand(), base.Unit))
				}
				m.disks[i].Release()
				m.sendMsg(a, m.agents[i], m.client, requestMsgBytes)
				acks.Done()
			})
		}
		total := 0
		for _, n := range per {
			total += n
		}
		for u, sent := 0, 0; sent < total; u++ {
			i := u % base.Disks
			if arrived[i] == nil || arrived[i].Pending() == 0 {
				continue
			}
			m.sendMsg(p, m.client, m.agents[i], base.Unit)
			arrived[i].Done()
			sent++
		}
		acks.Wait(p)
		done()
	}

	type rec struct{ start, end time.Duration }
	recs := make([]rec, base.Requests)
	eng.Go(func(g *sim.Proc) {
		for r := 0; r < base.Requests; r++ {
			ia := eng.Rand().ExpFloat64() / lambda
			g.Sleep(time.Duration(ia * float64(time.Second)))
			r := r
			isRead := eng.Rand().Float64() < base.ReadFraction
			eng.Go(func(p *sim.Proc) {
				recs[r].start = p.Now()
				done := func() { recs[r].end = p.Now() }
				if isRead || !cfg.Parity {
					if isRead {
						m.readRequest(p, done)
					} else {
						m.writeRequest(p, done)
					}
					return
				}
				writeParity(p, done)
			})
		}
	})
	eng.RunAll()

	var sum time.Duration
	counted := 0
	for r := base.Warmup; r < base.Requests; r++ {
		if recs[r].end > recs[r].start {
			sum += recs[r].end - recs[r].start
			counted++
		}
	}
	res := Result{Completed: counted}
	if counted > 0 {
		res.MeanResponse = sum / time.Duration(counted)
		res.ClientDataRate = float64(base.RequestBytes) / res.MeanResponse.Seconds()
	}
	var diskBusy time.Duration
	for _, d := range m.disks {
		diskBusy += d.BusyTime()
	}
	if eng.Now() > 0 {
		res.DiskUtil = diskBusy.Seconds() / float64(base.Disks) / eng.Now().Seconds()
		res.RingUtil = m.ring.BusyTime().Seconds() / eng.Now().Seconds()
	}
	return res
}

// ParityImpact compares write-heavy response times with and without
// computed-copy redundancy at one load — the study §6.1.1 planned.
func ParityImpact(disks int, unit, request int64, lambda float64) (plain, withParity Result) {
	mk := func(par bool) Result {
		cfg := ParityConfig{
			Config: Config{
				Disks:        disks,
				Drive:        Figure3Drive(),
				RequestBytes: request,
				Unit:         unit,
				ReadFraction: 0.0001, // write-dominated: parity is a write cost
				Requests:     800,
				Seed:         1,
			},
			Parity: par,
		}
		return RunParity(cfg, lambda)
	}
	return mk(false), mk(true)
}
