package main

import (
	"time"

	"dmknn/internal/cluster"
	"dmknn/internal/core"
	"dmknn/internal/geo"
	"dmknn/internal/grid"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/shard"
	"dmknn/internal/sim"
	"dmknn/internal/transport"
)

// layer indexes the self-time accumulators of the traced run. The self
// times of one tick add up to its wall time: motion, the client round and
// each server phase are timed back to back from the method boundary, a
// flush is the gap between two phases, and handler calls inside a span
// are subtracted from it as children.
type layer int

const (
	lMotion         layer = iota // Step start to ClientTick: mobility (sim)
	lAgentsTick                  // ClientTick: every agent's Tick
	lAgentsHandle                // agent HandleServerMessage calls inside Flush
	lSimnetSelf                  // Flush minus the handler calls inside it
	lServerIngest                // radio HandleUplink; node servers' busy time inside federation entry points
	lServerTick                  // server Tick minus link deliveries inside it
	lServerFinalize              // server Finalize rounds minus link deliveries inside them
	lShardDrain                  // shard.Server.Drain
	lClusterRoute                // federation HandleUplink/HandleLink minus node busy time
	lReturn                      // last Finalize return to Step return
	nLayers
)

var layerNames = [nLayers]string{
	"motion", "client_tick", "agent_handle", "flush", "ingest",
	"server_tick", "finalize", "drain", "route", "return",
}

// span is one phase call of one traced tick. Handler calls inside it are
// aggregated into Child (their summed wall time) and Calls.
type span struct {
	Tick    int64  `json:"tick"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // offset from the tick's Step call
	DurNS   int64  `json:"dur_ns"`
	ChildNS int64  `json:"child_ns"`
	Calls   int    `json:"calls"`
}

// tracer accumulates spans, self times and counts for the traced run.
// Every method it wraps is called on the engine goroutine (federation
// node ticks run in parallel, but link delivery and the radio handlers
// stay on the caller of Tick/Finalize), so it needs no lock.
type tracer struct {
	self      [nLayers]time.Duration
	agentMsgs uint64 // agent HandleServerMessage calls
	reports   uint64 // radio HandleUplink calls
	drains    uint64
	drained   uint64 // reports that arrived before a Drain
	finalizes uint64
	spans     []span
	wall      time.Duration // Step calls, as the tracer saw them

	// busy, when non-nil, sums the federation nodes' BusyTime so the
	// federation entry points can be split into server and routing time.
	busy func() time.Duration

	now        model.Tick
	stepStart  time.Time
	mark       time.Time // end of the last phase span; a flush starts here
	child      time.Duration
	calls      int
	sinceDrain uint64
}

func (t *tracer) beginStep(now model.Tick) {
	t.now = now
	t.stepStart = time.Now()
	t.mark = t.stepStart
	t.child, t.calls = 0, 0
}

// endStep closes the tick.
func (t *tracer) endStep() {
	end := time.Now()
	t.record("return", lReturn, t.mark, end)
	t.wall += end.Sub(t.stepStart)
}

// record closes a span [from, to) whose self time goes to l.
func (t *tracer) record(name string, l layer, from, to time.Time) {
	d := to.Sub(from)
	t.self[l] += d - t.child
	t.spans = append(t.spans, span{
		Tick: int64(t.now), Name: name, StartNS: int64(from.Sub(t.stepStart)),
		DurNS: int64(d), ChildNS: int64(t.child), Calls: t.calls,
	})
	t.child, t.calls = 0, 0
	t.mark = to
}

// closeFlush records the flush that ran between the last phase and now.
func (t *tracer) closeFlush(now time.Time) { t.record("flush", lSimnetSelf, t.mark, now) }

// childDone charges one handler call of duration d to the open span.
func (t *tracer) childDone(d time.Duration) {
	t.child += d
	t.calls++
}

// split charges a federation entry point: node server busy time to the
// server layer, the rest to routing.
func (t *tracer) split(d, busy time.Duration) {
	t.self[lServerIngest] += busy
	t.self[lClusterRoute] += d - busy
	t.childDone(d)
}

type agentHook struct {
	h  transport.ClientHandler
	tr *tracer
}

func (a agentHook) HandleServerMessage(m protocol.Message) {
	start := time.Now()
	a.h.HandleServerMessage(m)
	d := time.Since(start)
	a.tr.self[lAgentsHandle] += d
	a.tr.agentMsgs++
	a.tr.childDone(d)
}

type serverHook struct {
	h  transport.ServerHandler
	tr *tracer
}

func (s serverHook) HandleUplink(from model.ObjectID, m protocol.Message) {
	tr := s.tr
	tr.reports++
	tr.sinceDrain++
	if tr.busy == nil {
		start := time.Now()
		s.h.HandleUplink(from, m)
		d := time.Since(start)
		tr.self[lServerIngest] += d
		tr.childDone(d)
		return
	}
	b0 := tr.busy()
	start := time.Now()
	s.h.HandleUplink(from, m)
	d := time.Since(start)
	tr.split(d, tr.busy()-b0)
}

// serverCore is what the traced method drives on its server side.
type serverCore interface {
	Tick(now model.Tick)
	Finalize(now model.Tick) bool
}

// tracedMethod builds the same protocol machines as the workload's
// program method, from the same public constructors and in the same
// order, with every layer entry point wrapped by the tracer. The run
// checks that it reproduces the untraced method's traffic and answers
// exactly.
type tracedMethod struct {
	s      spec
	tr     *tracer
	server serverCore
	drain  func(model.Tick) bool // batched only
	// units returns each server unit's cumulative BusyTime: the single
	// server, the shard server's max-over-shards figure, or every node.
	units   []func() time.Duration
	cluster *cluster.Cluster
	link    *cluster.MemLink
	agents  []*core.ObjectAgent
	qcs     []*core.QueryAgent
}

var _ sim.Method = (*tracedMethod)(nil)

func (m *tracedMethod) Name() string { return "traced-" + m.s.name }

func (m *tracedMethod) Setup(env *sim.Env) error {
	cfg := m.s.proto.WithWorldDefault(env.World)
	deps := core.ServerDeps{
		Side:           env.Net.ServerSide(),
		Now:            env.Net.Now,
		DT:             env.DT,
		MaxObjectSpeed: env.MaxObjectSpeed,
		MaxQuerySpeed:  env.MaxQuerySpeed,
		LatencyTicks:   env.LatencyTicks,
	}
	switch m.s.kind {
	case single:
		deps.Trace = env.Trace
		srv, err := core.NewServer(cfg, deps)
		if err != nil {
			return err
		}
		m.server, m.units = srv, []func() time.Duration{srv.BusyTime}
		env.Net.AttachServer(serverHook{srv, m.tr})
	case batched:
		srv, err := shard.NewWithOptions(m.s.units, cfg, deps, shard.Options{Batched: true})
		if err != nil {
			return err
		}
		m.server, m.drain, m.units = srv, srv.Drain, []func() time.Duration{srv.BusyTime}
		env.Net.AttachServer(serverHook{srv, m.tr})
	case federation:
		if err := m.setupFederation(cfg, env); err != nil {
			return err
		}
	}
	for i := range env.Objects {
		id := model.ObjectID(i + 1)
		idx := i
		a, err := core.NewObjectAgent(cfg, core.AgentDeps{
			ID:           id,
			Side:         env.Net.ClientSide(id),
			Now:          env.Net.Now,
			Pos:          func() geo.Point { return env.Objects[idx].Pos },
			DT:           env.DT,
			LatencyTicks: env.LatencyTicks,
			Trace:        env.Trace,
		})
		if err != nil {
			return err
		}
		m.agents = append(m.agents, a)
		env.Net.AttachClient(id, agentHook{a, m.tr})
	}
	for i := range env.Queries {
		idx := i
		addr := env.Queries[i].State.ID
		qa, err := core.NewQueryAgent(cfg, env.Queries[i].Spec, core.QueryAgentDeps{
			AgentDeps: core.AgentDeps{
				ID:           addr,
				Side:         env.Net.ClientSide(addr),
				Now:          env.Net.Now,
				Pos:          func() geo.Point { return env.Queries[idx].State.Pos },
				DT:           env.DT,
				LatencyTicks: env.LatencyTicks,
				Trace:        env.Trace,
			},
			Vel: func() geo.Vector { return env.Queries[idx].State.Vel },
		})
		if err != nil {
			return err
		}
		m.qcs = append(m.qcs, qa)
		env.Net.AttachClient(addr, agentHook{qa, m.tr})
	}
	return nil
}

// setupFederation mirrors cluster.Method.Setup with an ideal link and
// the balancer off.
func (m *tracedMethod) setupFederation(cfg core.Config, env *sim.Env) error {
	part, err := cluster.NewPartition(env.Geometry, m.s.units)
	if err != nil {
		return err
	}
	link := cluster.NewMemLink(cluster.LinkConfig{}, env.Net.Now)
	ref := cluster.NewPartitionRef(part)
	cl, err := cluster.New(part, cfg, cluster.Deps{
		Link: link,
		Radio: func(node int) transport.ServerSide {
			return env.Net.RestrictedServerSide(func(c grid.Cell) bool {
				return ref.Load().CellOwner(c) == node
			})
		},
		Now:            env.Net.Now,
		DT:             env.DT,
		MaxObjectSpeed: env.MaxObjectSpeed,
		MaxQuerySpeed:  env.MaxQuerySpeed,
		LatencyTicks:   env.LatencyTicks,
		Trace:          env.Trace,
		PartRef:        ref,
	})
	if err != nil {
		return err
	}
	m.cluster, m.link, m.server = cl, link, cl
	for i := 0; i < m.s.units; i++ {
		m.units = append(m.units, cl.Node(i).BusyTime)
	}
	tr := m.tr
	tr.busy = func() time.Duration {
		var sum time.Duration
		for _, u := range m.units {
			sum += u()
		}
		return sum
	}
	link.OnDeliver(func(from, to int, msg protocol.Message) {
		b0 := tr.busy()
		start := time.Now()
		cl.HandleLink(from, to, msg)
		d := time.Since(start)
		tr.split(d, tr.busy()-b0)
	})
	env.Net.AttachServer(serverHook{cl, tr})
	for i := range env.Objects {
		cl.SeedHome(env.Objects[i].ID, env.Objects[i].Pos)
	}
	for i := range env.Queries {
		cl.SeedHome(env.Queries[i].State.ID, env.Queries[i].State.Pos)
	}
	return nil
}

func (m *tracedMethod) ClientTick(now model.Tick) {
	tr := m.tr
	start := time.Now()
	tr.record("motion", lMotion, tr.mark, start)
	for _, qc := range m.qcs {
		qc.Tick(now)
	}
	for _, a := range m.agents {
		a.Tick(now)
	}
	tr.record("client_tick", lAgentsTick, start, time.Now())
}

func (m *tracedMethod) ServerTick(now model.Tick) {
	tr := m.tr
	start := time.Now()
	tr.closeFlush(start)
	if m.drain != nil {
		tr.drains++
		tr.drained += tr.sinceDrain
		tr.sinceDrain = 0
		m.drain(now)
		tr.record("drain", lShardDrain, start, time.Now())
		start = tr.mark
	}
	m.server.Tick(now)
	tr.record("server_tick", lServerTick, start, time.Now())
}

func (m *tracedMethod) Finalize(now model.Tick) bool {
	tr := m.tr
	start := time.Now()
	tr.closeFlush(start)
	tr.finalizes++
	more := m.server.Finalize(now)
	tr.record("finalize", lServerFinalize, start, time.Now())
	return more
}

func (m *tracedMethod) Answer(q model.QueryID) model.Answer {
	qi := int(q) - 1
	if qi < 0 || qi >= len(m.qcs) {
		return model.Answer{Query: q}
	}
	return m.qcs[qi].Answer()
}

func (m *tracedMethod) ServerTime() time.Duration {
	var longest time.Duration
	for _, u := range m.units {
		longest = max(longest, u())
	}
	return longest
}

// monitors returns the total number of query monitors the object agents
// hold.
func (m *tracedMethod) monitors() int {
	n := 0
	for _, a := range m.agents {
		n += a.MonitorCount()
	}
	return n
}
