// Package apps models the application-level workloads of §5.3: a
// Memcached-like latency-sensitive key-value tenant, a MongoDB-like
// bandwidth-hungry bulk-fetch tenant (Fig 13), and the Elastic Block
// Storage task mix — Storage Agents, Block Agents with 3-way replication,
// and Garbage Collection (Fig 14).
//
// The applications are transport-agnostic: they run over any fabric that
// implements the Net interface (μFAB's vfabric or the baseline fabric),
// sending framed messages through workload.Messages trackers and measuring
// query/task completion times end-to-end.
package apps

import (
	"fmt"
	"math/rand"

	"ufab/internal/sim"
	"ufab/internal/stats"
	"ufab/internal/topo"
	"ufab/internal/workload"
)

// Net abstracts the fabric the applications run over.
type Net interface {
	// Dial returns the message channel for VM-pair src→dst inside the
	// given VF with the given token weight, creating it on first use.
	Dial(vf int32, tokens float64, src, dst topo.NodeID) *workload.Messages
	// Engine returns the simulation clock driving the fabric.
	Engine() sim.Scheduler
}

// VM identifies an application VM by the host it is placed on and an index
// for multi-VM hosts.
type VM struct {
	Host topo.NodeID
	Idx  int
}

// PlaceVMs distributes n VMs evenly (round-robin) over the given hosts.
func PlaceVMs(hosts []topo.NodeID, n int) []VM {
	vms := make([]VM, n)
	for i := 0; i < n; i++ {
		vms[i] = VM{Host: hosts[i%len(hosts)], Idx: i / len(hosts)}
	}
	return vms
}

// rpc performs a request/response exchange: a small request message
// src→dst, then a response of respSize dst→src; done fires when the
// response completes.
type rpcer struct {
	net     Net
	vf      int32
	tokens  float64
	reqSize int64
}

func (r *rpcer) call(src, dst topo.NodeID, respSize int64, done func(qct sim.Duration)) {
	eng := r.net.Engine()
	start := eng.Now()
	req := r.net.Dial(r.vf, r.tokens, src, dst)
	resp := r.net.Dial(r.vf, r.tokens, dst, src)
	req.SendFunc(r.reqSize, start, func(workload.Message, sim.Duration) {
		resp.SendFunc(respSize, eng.Now(), func(workload.Message, sim.Duration) {
			done(eng.Now() - start)
		})
	})
}

// MemcachedConfig parameterizes the latency-sensitive tenant.
type MemcachedConfig struct {
	VF     int32
	Tokens float64 // per VM-pair token weight
	// Clients and Servers are VM placements.
	Clients, Servers []VM
	// Period is the client think time between query starts; a query
	// that takes longer defers the next one (closed loop).
	Period sim.Duration
	Seed   int64
}

// Memcached is the Fig-13 latency-sensitive application.
type Memcached struct {
	cfg MemcachedConfig
	net Net
	rng *rand.Rand
	rpc rpcer
	// dist is the value-size distribution.
	dist *workload.SizeDist

	// QCT collects query completion times in microseconds.
	QCT stats.Samples
	// Queries counts completed queries.
	Queries int64

	startedAt sim.Time
	stopped   bool
}

// NewMemcached creates the tenant; Start launches the client loops.
func NewMemcached(net Net, cfg MemcachedConfig) *Memcached {
	if cfg.Period == 0 {
		cfg.Period = 200 * sim.Microsecond
	}
	m := &Memcached{
		cfg:  cfg,
		net:  net,
		rng:  stats.NewRand(cfg.Seed ^ 0x6d656d63),
		rpc:  rpcer{net: net, vf: cfg.VF, tokens: cfg.Tokens, reqSize: 64},
		dist: workload.KeyValue(),
	}
	return m
}

// Start launches one closed query loop per client VM.
func (m *Memcached) Start() {
	eng := m.net.Engine()
	m.startedAt = eng.Now()
	for ci := range m.cfg.Clients {
		client := m.cfg.Clients[ci]
		var loop func()
		loop = func() {
			if m.stopped {
				return
			}
			issued := eng.Now()
			server := m.cfg.Servers[m.rng.Intn(len(m.cfg.Servers))]
			size := m.dist.Sample(m.rng)
			if client.Host == server.Host {
				// Intra-host query: no fabric involvement; complete
				// after a nominal local latency.
				eng.After(5*sim.Microsecond, func() {
					m.QCT.Add((eng.Now() - issued).Micros())
					m.Queries++
					m.scheduleNext(issued, loop)
				})
				return
			}
			m.rpc.call(client.Host, server.Host, size, func(qct sim.Duration) {
				m.QCT.Add(qct.Micros())
				m.Queries++
				m.scheduleNext(issued, loop)
			})
		}
		// Desynchronize client starts.
		eng.After(sim.Duration(m.rng.Int63n(int64(m.cfg.Period))), loop)
	}
}

func (m *Memcached) scheduleNext(issued sim.Time, loop func()) {
	eng := m.net.Engine()
	next := issued + m.cfg.Period
	if now := eng.Now(); next < now {
		next = now
	}
	eng.At(next, loop)
}

// Stop halts the client loops after their in-flight queries.
func (m *Memcached) Stop() { m.stopped = true }

// QPS returns completed queries per second since Start.
func (m *Memcached) QPS(now sim.Time) float64 {
	el := (now - m.startedAt).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(m.Queries) / el
}

// MongoConfig parameterizes the bandwidth-hungry tenant: each client
// continuously fetches fetchSize from a random server (500 KB, §5.3).
type MongoConfig struct {
	VF               int32
	Tokens           float64
	Clients, Servers []VM
	fetchSize        int64
	// Concurrency is the number of outstanding fetches per client VM
	// (default 1).
	Concurrency int
	Seed        int64
}

// Mongo is the Fig-13 background bulk-fetch application.
type Mongo struct {
	cfg     MongoConfig
	net     Net
	rng     *rand.Rand
	rpc     rpcer
	Fetches int64
	stopped bool
}

// NewMongo creates the tenant.
func NewMongo(net Net, cfg MongoConfig) *Mongo {
	if cfg.fetchSize == 0 {
		cfg.fetchSize = 500_000
	}
	return &Mongo{
		cfg: cfg,
		net: net,
		rng: stats.NewRand(cfg.Seed ^ 0x6d6f6e67),
		rpc: rpcer{net: net, vf: cfg.VF, tokens: cfg.Tokens, reqSize: 64},
	}
}

// Start launches the continuous fetch loops per client VM.
func (m *Mongo) Start() {
	eng := m.net.Engine()
	conc := m.cfg.Concurrency
	if conc < 1 {
		conc = 1
	}
	for ci := range m.cfg.Clients {
		for c := 0; c < conc; c++ {
			m.startLoop(eng, m.cfg.Clients[ci])
		}
	}
}

func (m *Mongo) startLoop(eng sim.Scheduler, client VM) {
	{
		var loop func()
		loop = func() {
			if m.stopped {
				return
			}
			server := m.cfg.Servers[m.rng.Intn(len(m.cfg.Servers))]
			if client.Host == server.Host {
				eng.After(10*sim.Microsecond, func() { m.Fetches++; loop() })
				return
			}
			m.rpc.call(client.Host, server.Host, m.cfg.fetchSize, func(sim.Duration) {
				m.Fetches++
				loop()
			})
		}
		eng.After(sim.Duration(m.rng.Int63n(int64(100*sim.Microsecond))), loop)
	}
}

// Stop halts the fetch loops.
func (m *Mongo) Stop() { m.stopped = true }

// EBSConfig parameterizes the Fig-14 storage task mix. Storage Agents sit
// on the left hosts; Block Agents, Chunk Servers and GC agents share the
// right hosts.
type EBSConfig struct {
	// SAHosts host one Storage Agent VM each; Storage hosts each run a
	// Block Agent, a Chunk Server and a GC agent VM.
	SAHosts, StorageHosts []topo.NodeID
	// Tokens per task VF (guarantees: SA 2G, BA 6G, GC 1G at BU=100M).
	SATokens, BATokens, GCTokens float64
	// SAPeriod (320 μs), SASize (64 KB), GCPeriod (1 ms), GCReadSize,
	// GCWriteSize parameterize the tasks.
	SAPeriod, GCPeriod      sim.Duration
	SASize                  int64
	GCReadSize, GCWriteSize int64
	Seed                    int64
}

// The storage mix's fixed shape: the Block Agent replication factor and
// the VF ids of the three tasks.
const (
	ebsReplicas               = 3
	ebsSAVF, ebsBAVF, ebsGCVF = 101, 102, 103
)

func (c *EBSConfig) setDefaults() {
	if c.SAPeriod == 0 {
		c.SAPeriod = 320 * sim.Microsecond
	}
	if c.GCPeriod == 0 {
		c.GCPeriod = sim.Millisecond
	}
	if c.SASize == 0 {
		c.SASize = 64 << 10
	}
	if c.GCReadSize == 0 {
		c.GCReadSize = 256 << 10
	}
	if c.GCWriteSize == 0 {
		c.GCWriteSize = 128 << 10
	}
}

// EBS is the storage scenario: it records SA, BA and total task completion
// times (milliseconds).
type EBS struct {
	cfg EBSConfig
	net Net
	rng *rand.Rand

	// SATCT, BATCT, TotalTCT collect task completion times in ms.
	SATCT, BATCT, TotalTCT stats.Samples
	// GCTCT collects GC cycle times in ms.
	GCTCT stats.Samples

	stopped bool
}

// NewEBS creates the storage tenant mix.
func NewEBS(net Net, cfg EBSConfig) *EBS {
	cfg.setDefaults()
	return &EBS{cfg: cfg, net: net, rng: stats.NewRand(cfg.Seed ^ 0x65627300)}
}

// Start launches the SA write loops and GC cycles.
func (e *EBS) Start() {
	eng := e.net.Engine()
	// Storage Agents: a 64 KB message to a random Block Agent every
	// SAPeriod (open loop — bursts overlap under slowdown, exactly the
	// production pathology of Fig 2).
	for _, sa := range e.cfg.SAHosts {
		sa := sa
		eng.Every(e.cfg.SAPeriod, func() {
			if e.stopped {
				return
			}
			e.storeTask(sa)
		})
	}
	// GC: read from a random chunk server then write back, every
	// GCPeriod per storage host.
	for _, gcHost := range e.cfg.StorageHosts {
		gcHost := gcHost
		eng.Every(e.cfg.GCPeriod, func() {
			if e.stopped {
				return
			}
			e.gcTask(gcHost)
		})
	}
}

// Stop halts new task generation.
func (e *EBS) Stop() { e.stopped = true }

func (e *EBS) storeTask(sa topo.NodeID) {
	eng := e.net.Engine()
	start := eng.Now()
	ba := e.cfg.StorageHosts[e.rng.Intn(len(e.cfg.StorageHosts))]
	e.sendMsg(ebsSAVF, e.cfg.SATokens, sa, ba, e.cfg.SASize, func() {
		saDone := eng.Now()
		e.SATCT.Add((saDone - start).Millis())
		// Block Agent replicates to distinct chunk servers.
		targets := e.pickChunkServers(ba)
		remaining := len(targets)
		for _, cs := range targets {
			e.sendMsg(ebsBAVF, e.cfg.BATokens, ba, cs, e.cfg.SASize, func() {
				remaining--
				if remaining == 0 {
					now := eng.Now()
					e.BATCT.Add((now - saDone).Millis())
					e.TotalTCT.Add((now - start).Millis())
				}
			})
		}
	})
}

func (e *EBS) pickChunkServers(ba topo.NodeID) []topo.NodeID {
	var others []topo.NodeID
	for _, h := range e.cfg.StorageHosts {
		if h != ba {
			others = append(others, h)
		}
	}
	e.rng.Shuffle(len(others), func(i, j int) { others[i], others[j] = others[j], others[i] })
	return others[:min(ebsReplicas, len(others))]
}

func (e *EBS) gcTask(gcHost topo.NodeID) {
	eng := e.net.Engine()
	start := eng.Now()
	cs := e.cfg.StorageHosts[e.rng.Intn(len(e.cfg.StorageHosts))]
	if cs == gcHost {
		return // local read-modify-write: no fabric traffic
	}
	e.sendMsg(ebsGCVF, e.cfg.GCTokens, cs, gcHost, e.cfg.GCReadSize, func() {
		e.sendMsg(ebsGCVF, e.cfg.GCTokens, gcHost, cs, e.cfg.GCWriteSize, func() {
			e.GCTCT.Add((eng.Now() - start).Millis())
		})
	})
}

// sendMsg sends one tracked message and fires done on completion.
func (e *EBS) sendMsg(vf int32, tokens float64, src, dst topo.NodeID, size int64, done func()) {
	ch := e.net.Dial(vf, tokens, src, dst)
	ch.SendFunc(size, e.net.Engine().Now(), func(workload.Message, sim.Duration) { done() })
}

// Summary formats the three TCT sample sets for EXPERIMENTS.md rows.
func (e *EBS) Summary() string {
	return fmt.Sprintf("SA %s | BA %s | Total %s",
		e.SATCT.Summary("ms"), e.BATCT.Summary("ms"), e.TotalTCT.Summary("ms"))
}
