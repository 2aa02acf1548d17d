// Command perfbench measures the DKNN simulation end to end and layer by
// layer. One invocation runs one workload for one seed:
//
//	perfbench --workload city --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of untraced rounds;
// with --trace 1 it alternates untraced and traced rounds and prints the
// per-layer breakdown. Every answer of every measured tick is checked
// against a brute-force kNN outside the timed region. The last line of
// standard output is the JSON result; README.md describes the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"

	"dmknn/internal/cluster"
	"dmknn/internal/metrics"
	"dmknn/internal/model"
	"dmknn/internal/protocol"
	"dmknn/internal/sim"
)

const (
	// procs is the GOMAXPROCS of every run. On a 2-vCPU VM the hypervisor
	// steals up to half of both vCPUs while both are busy, which swung
	// dense's tick wall time from 180 to 340 ms between runs of one seed;
	// with one busy vCPU wall time stays within a few percent of CPU time.
	procs = 1
	// minSetups gives setup_s a median of at least five set-ups.
	minSetups = 5
	// minRounds is the fewest untraced rounds a --trace 0 run measures:
	// each tick's time is its median over at least three replays.
	minRounds = 3
	// minTicks keeps ten ticks beyond the reported tail percentile.
	minTicks = 100
	// tailPct is that percentile: p90 of at least 100 ticks leaves ten
	// or more beyond it.
	tailPct = 90
	// setupProbes is the number of probe runs timed after each extra
	// set-up, to scale it to the reference host's speed.
	setupProbes = 100
	// maxWarmup bounds the ticks until every query holds a first answer.
	maxWarmup = 50
	// sumTolerance is how far the traced self times may fall short of
	// the wall time of the traced Step calls, as a share of it.
	sumTolerance = 0.01
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string
	spans    string
}

func parse(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name: city, dense, influence or federation")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured wall time in seconds")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer breakdown of a traced run, 0 the end-to-end metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or smoke for a seconds-long check of every path")
	fs.StringVar(&o.spans, "spans", "", "directory the traced run writes its spans to (none if empty)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() != 0:
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	case *traceFlag != 0 && *traceFlag != 1:
		return o, fmt.Errorf("--trace must be 0 or 1, not %d", *traceFlag)
	case !(o.seconds > 0):
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = *traceFlag == 1
	return o, nil
}

// round is the outcome of one fresh engine driven through warm-up and the
// workload's measured ticks.
type round struct {
	traced  bool
	setup   time.Duration
	walls   []time.Duration  // per measured tick
	cpus    []time.Duration  // process CPU time per measured tick
	probes  []sample         // one probe run after each measured tick
	speed   float64          // scale(probes): to the reference host's speed
	traffic metrics.Counters // measured ticks only
	final   metrics.Counters // whole engine lifetime
	answers []model.Answer   // at the end of the round
	check   checker

	// Traced rounds only.
	tr       *tracer
	busy     []time.Duration // per server unit, measured ticks
	monitors float64         // summed over measured ticks
	link     cluster.LinkStats
	fed      cluster.Stats

	// Untraced rounds of a --trace 1 run only.
	alloc, gcs, pause uint64
}

func run(args []string, stdout io.Writer) error {
	o, err := parse(args)
	if err != nil {
		return err
	}
	s, err := buildSpec(o.workload, o.scale, o.seed)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(procs)
	pr := newProbe()
	var rounds []*round
	var setups []float64
	// A trace run alternates untraced and traced rounds of a quarter of
	// the workload's ticks, at least two of each, so that a drift in
	// machine speed weighs on both sides of trace.overhead_pct alike.
	ticks := s.ticks
	if o.trace {
		ticks = max(ticks/4, 1)
	}
	start := time.Now()
	for {
		traced := o.trace && len(rounds)%2 == 1
		r, err := runRound(s, ticks, traced, o.trace && !traced, pr)
		if err != nil {
			return err
		}
		if len(rounds) > 0 {
			r.check.note(sameOutcome(rounds[0], r))
		}
		rounds = append(rounds, r)
		setups = append(setups, scaled(r.setup, r.speed).Seconds())
		// Stop once another round of the mean length would end more than
		// a quarter of a round after --seconds.
		elapsed := time.Since(start)
		mean := elapsed / time.Duration(len(rounds))
		done := elapsed+mean*3/4 > time.Duration(o.seconds*float64(time.Second))
		if o.trace {
			done = done && len(rounds)%2 == 0 && len(rounds) >= 4
		} else {
			done = done && len(rounds) >= minRounds
		}
		if done {
			break
		}
	}
	for !o.trace && len(setups) < minSetups {
		runtime.GC()
		_, d, err := setUp(s, nil)
		if err != nil {
			return err
		}
		probes := make([]sample, setupProbes)
		for i := range probes {
			probes[i] = pr.run()
		}
		setups = append(setups, scaled(d, scale(probes)).Seconds())
	}

	res := result{Metrics: map[string]metric{}}
	inexact := 0
	var probes []sample
	for _, r := range rounds {
		probes = append(probes, r.probes...)
		res.Attempted += r.check.attempted
		res.Failed += r.check.failed
		inexact += r.check.inexact
		if r.check.firstErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", s.name, o.seed, r.check.firstErr)
		}
		if r.check.firstInexact != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: inexact, counted apart: %v\n", s.name, o.seed, r.check.firstInexact)
		}
	}
	res.Correct = res.Failed == 0
	if o.trace {
		if err := layerMetrics(s, rounds, res.Metrics); err != nil {
			return err
		}
		if o.spans != "" {
			if err := writeSpans(o.spans, s.name, o.seed, rounds); err != nil {
				return err
			}
		}
	} else {
		endToEnd(rounds, median(setups), res.Metrics)
	}
	fmt.Fprintf(stdout, "workload=%s seed=%d scale=%s num_cpu=%d GOMAXPROCS=%d rounds=%d ticks_per_round=%d attempted=%d failed=%d inexact_apart=%d probe_us=%.2f (reference %.2f)\n",
		s.name, o.seed, o.scale, runtime.NumCPU(), runtime.GOMAXPROCS(0), len(rounds), ticks, res.Attempted, res.Failed, inexact,
		us(probeTime(probes)), us(probeRef))
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// engine is one set-up world: the engine, the method it drives, and the
// handles the checks and the breakdown read.
type engine struct {
	*sim.Engine
	m  sim.Method
	tm *tracedMethod // traced rounds only
	cl *cluster.Cluster
}

// setUp builds the world and the workload's method (the traced mirror
// when tr is non-nil) and steps it until every query holds its first
// installed answer. It returns the time all of that took.
func setUp(s spec, tr *tracer) (*engine, time.Duration, error) {
	begin := time.Now()
	e := &engine{}
	if tr != nil {
		e.tm = &tracedMethod{s: s, tr: tr}
		e.m = e.tm
	} else {
		var err error
		if e.m, err = s.programMethod(); err != nil {
			return nil, 0, err
		}
	}
	var err error
	if e.Engine, err = sim.NewEngine(s.sim, e.m); err != nil {
		return nil, 0, err
	}
	for warm := 0; !allAnswered(e.Env(), e.m, s.sim.K); warm++ {
		if warm == maxWarmup {
			return nil, 0, fmt.Errorf("%s: queries still unanswered after %d warm-up ticks", s.name, maxWarmup)
		}
		if err := step(e.Engine, tr); err != nil {
			return nil, 0, err
		}
	}
	switch m := e.m.(type) {
	case *cluster.Method:
		e.cl = m.Cluster()
	case *tracedMethod:
		e.cl = m.cluster
	}
	return e, time.Since(begin), nil
}

// runRound sets up a fresh engine, then times each of the workload's
// measured ticks from outside and checks the state after it.
func runRound(s spec, ticks int, traced, memStats bool, pr *probe) (*round, error) {
	runtime.GC() // every round starts from the same heap state
	r := &round{traced: traced}
	r.check.exactApart = s.exactApart
	if traced {
		r.tr = &tracer{}
	}
	e, setup, err := setUp(s, r.tr)
	if err != nil {
		return nil, err
	}
	r.setup = setup
	env, m, tm, cl := e.Env(), e.m, e.tm, e.cl
	if r.tr != nil {
		// Warm-up spans and counts are not part of the breakdown.
		*r.tr = tracer{busy: r.tr.busy}
	}
	var busy0 []time.Duration
	var link0 cluster.LinkStats
	var fed0 cluster.Stats
	if tm != nil {
		busy0 = unitBusy(tm)
		if tm.link != nil {
			link0, fed0 = tm.link.Stats(), tm.cluster.Stats()
		}
	}
	base := env.Net.Counters().Snapshot()
	var ms0, ms1 runtime.MemStats
	r.walls = make([]time.Duration, 0, ticks)
	r.cpus = make([]time.Duration, 0, ticks)
	for i := 0; i < ticks; i++ {
		if memStats {
			runtime.ReadMemStats(&ms0)
		}
		cpu0, _ := rusage()
		t0 := time.Now()
		if err := step(e.Engine, r.tr); err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		cpu1, _ := rusage()
		if memStats {
			runtime.ReadMemStats(&ms1)
			r.alloc += ms1.TotalAlloc - ms0.TotalAlloc
			r.gcs += uint64(ms1.NumGC - ms0.NumGC)
			r.pause += ms1.PauseTotalNs - ms0.PauseTotalNs
		}
		r.walls = append(r.walls, wall)
		r.cpus = append(r.cpus, cpu1-cpu0)
		r.check.tick(env, m, s.sim.K, cl, e.Now())
		r.probes = append(r.probes, pr.run())
		if tm != nil {
			r.monitors += float64(tm.monitors()) / float64(len(env.Objects))
		}
	}
	r.speed = scale(r.probes)
	r.traffic = env.Net.Counters().Diff(base)
	r.final = env.Net.Counters().Snapshot()
	for i := range env.Queries {
		r.answers = append(r.answers, m.Answer(env.Queries[i].Spec.ID))
	}
	if tm != nil {
		r.busy = unitBusy(tm)
		for i := range r.busy {
			r.busy[i] -= busy0[i]
		}
		if tm.link != nil {
			ls, cs := tm.link.Stats(), tm.cluster.Stats()
			r.link = cluster.LinkStats{Sent: ls.Sent - link0.Sent, SentBytes: ls.SentBytes - link0.SentBytes}
			r.fed = cluster.Stats{
				ObjectHandoffs: cs.ObjectHandoffs - fed0.ObjectHandoffs,
				QueryHandoffs:  cs.QueryHandoffs - fed0.QueryHandoffs,
			}
		}
		r.check.note(tracedSum(r))
	}
	return r, nil
}

// step advances the engine one tick, inside the tracer's tick when traced.
func step(eng *sim.Engine, tr *tracer) error {
	if tr == nil {
		return eng.Step()
	}
	tr.beginStep(eng.Now() + 1)
	err := eng.Step()
	tr.endStep()
	return err
}

func allAnswered(env *sim.Env, m sim.Method, k int) bool {
	for i := range env.Queries {
		if len(m.Answer(env.Queries[i].Spec.ID).Neighbors) != k {
			return false
		}
	}
	return true
}

func unitBusy(tm *tracedMethod) []time.Duration {
	out := make([]time.Duration, len(tm.units))
	for i, u := range tm.units {
		out[i] = u()
	}
	return out
}

// rusage returns the process's user plus system CPU time and its peak
// resident set in MB.
func rusage() (cpu time.Duration, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sameOutcome checks that a round reproduced the first round of the run:
// every round replays the same seed, and a traced round must not change
// what the program does.
func sameOutcome(first, r *round) error {
	if first.final != r.final {
		return fmt.Errorf("round traced=%v: traffic counters differ from the first round", r.traced)
	}
	for i, a := range first.answers {
		b := r.answers[i]
		if a.Query != b.Query || a.At != b.At || !slices.Equal(a.Neighbors, b.Neighbors) {
			return fmt.Errorf("round traced=%v: final answer of query %d differs from the first round", r.traced, a.Query)
		}
	}
	return nil
}

// tracedSum checks that the traced self times add up to the wall time of
// the traced Step calls and that none is negative. Only the gap between
// the last phase and Step's return is left out of the layers.
func tracedSum(r *round) error {
	var sum time.Duration
	for l, d := range r.tr.self {
		if d < 0 {
			return fmt.Errorf("traced %s self time is negative (%v)", layerNames[l], d)
		}
		if layer(l) != lReturn {
			sum += d
		}
	}
	if gap := float64(r.tr.wall-sum) / float64(r.tr.wall); gap > sumTolerance {
		return fmt.Errorf("traced self times sum to %v of %v traced tick wall time", sum, r.tr.wall)
	}
	return nil
}

// endToEnd reports the untraced rounds at the reference host's speed.
// Every round replays the same ticks, so each tick's wall and CPU time is
// taken as its median over the rounds, after scaling each round by its
// own probe; rates and percentiles are then taken over those per-tick
// times. (The fastest replay of each tick spread about twice as far
// between seeds.)
func endToEnd(rounds []*round, setup float64, out map[string]metric) {
	walls := make([]time.Duration, len(rounds[0].walls))
	cpus := make([]time.Duration, len(walls))
	ws := make([]float64, len(rounds))
	cs := make([]float64, len(rounds))
	for i := range walls {
		for j, r := range rounds {
			ws[j] = float64(r.walls[i]) * r.speed
			cs[j] = float64(r.cpus[i]) * r.speed
		}
		walls[i], cpus[i] = time.Duration(median(ws)), time.Duration(median(cs))
	}
	var total, cpu time.Duration
	for i := range walls {
		total += walls[i]
		cpu += cpus[i]
	}
	n := float64(len(walls))
	slices.Sort(walls)
	tr := rounds[0].traffic // identical in every round (checked)
	var bytes uint64
	for _, d := range metrics.Directions() {
		bytes += tr.SentBytes(d)
	}
	out["ticks_per_s"] = metric{n / total.Seconds(), "1/s"}
	out["tick_ms_p50"] = metric{ms(quantile(walls, 50)), "ms"}
	out["tick_ms_tail"] = metric{ms(quantile(walls, tailPct)), "ms"}
	out["cpu_ms_per_tick"] = metric{ms(cpu) / n, "ms"}
	out["uplink_per_tick"] = metric{float64(tr.Sent(metrics.Uplink)) / n, "msgs/tick"}
	out["downlink_per_tick"] = metric{float64(tr.Sent(metrics.Downlink)) / n, "msgs/tick"}
	out["bcast_per_tick"] = metric{float64(tr.Sent(metrics.Broadcast)) / n, "msgs/tick"}
	out["air_bytes_per_tick"] = metric{float64(bytes) / n, "B/tick"}
	_, peak := rusage()
	out["peak_rss_mb"] = metric{peak, "MB"}
	out["setup_s"] = metric{setup, "s"}
}

func layerMetrics(s spec, rounds []*round, out map[string]metric) error {
	var (
		tr                 tracer
		traced, plain      time.Duration
		nTraced, nPlain    int
		monitors           float64
		busy               []time.Duration
		link               cluster.LinkStats
		fed                cluster.Stats
		alloc, gcs, pauses uint64
	)
	for _, r := range rounds {
		if !r.traced {
			for _, w := range r.walls {
				plain += scaled(w, r.speed)
			}
			nPlain += len(r.walls)
			alloc, gcs, pauses = alloc+r.alloc, gcs+r.gcs, pauses+r.pause
			continue
		}
		for _, w := range r.walls {
			traced += scaled(w, r.speed)
		}
		nTraced += len(r.walls)
		for l := range tr.self {
			tr.self[l] += scaled(r.tr.self[l], r.speed)
		}
		tr.agentMsgs += r.tr.agentMsgs
		tr.reports += r.tr.reports
		tr.drains += r.tr.drains
		tr.drained += r.tr.drained
		tr.finalizes += r.tr.finalizes
		monitors += r.monitors
		if busy == nil {
			busy = make([]time.Duration, len(r.busy))
		}
		for i, b := range r.busy {
			busy[i] += scaled(b, r.speed)
		}
		link.Sent += r.link.Sent
		link.SentBytes += r.link.SentBytes
		fed.ObjectHandoffs += r.fed.ObjectHandoffs
		fed.QueryHandoffs += r.fed.QueryHandoffs
	}
	if nTraced == 0 || nPlain == 0 {
		return errors.New("trace run needs an untraced and a traced round")
	}
	n := float64(nTraced)
	perTick := func(d time.Duration) float64 { return ms(d) / n }
	count := func(c uint64) float64 { return float64(c) / n }
	c := rounds[0].traffic // identical in every round (checked)
	perRound := float64(len(rounds[0].walls))
	answers := c.SentKind(metrics.Downlink, protocol.KindAnswerUpdate) + c.SentKind(metrics.Downlink, protocol.KindAnswerDelta)
	installs := c.SentKind(metrics.Broadcast, protocol.KindMonitorInstall) + c.SentKind(metrics.Broadcast, protocol.KindInfluenceInstall)
	var deliveries uint64
	for _, d := range metrics.Directions() {
		deliveries += c.Delivered(d)
	}
	var busySum, busyMax time.Duration
	for _, b := range busy {
		busySum += b
		busyMax = max(busyMax, b)
	}

	out["sim.motion_ms"] = metric{perTick(tr.self[lMotion]), "ms"}
	out["agents.tick_ms"] = metric{perTick(tr.self[lAgentsTick]), "ms"}
	out["agents.handle_ms"] = metric{perTick(tr.self[lAgentsHandle]), "ms"}
	out["agents.msgs"] = metric{count(tr.agentMsgs), "msgs/tick"}
	out["agents.monitors_per_object"] = metric{monitors / n, "count"}
	out["simnet.self_ms"] = metric{perTick(tr.self[lSimnetSelf]), "ms"}
	out["simnet.deliveries"] = metric{float64(deliveries) / perRound, "msgs/tick"}
	out["simnet.recipients_per_bcast"] = metric{ratio(c.Delivered(metrics.Broadcast), c.Sent(metrics.Broadcast)), "ratio"}
	out["server.ingest_ms"] = metric{perTick(tr.self[lServerIngest]), "ms"}
	out["server.reports"] = metric{count(tr.reports), "msgs/tick"}
	out["server.tick_ms"] = metric{perTick(tr.self[lServerTick]), "ms"}
	out["server.finalize_ms"] = metric{perTick(tr.self[lServerFinalize]), "ms"}
	out["server.finalize_rounds"] = metric{count(tr.finalizes), "count"}
	out["server.busy_ms"] = metric{perTick(busySum), "ms"}
	out["server.answer_updates_per_report"] = metric{ratio(answers, c.Delivered(metrics.Uplink)), "ratio"}
	out["server.installs_per_answer_update"] = metric{ratio(installs, answers), "ratio"}
	out["shard.drain_ms"] = metric{perTick(tr.self[lShardDrain]), "ms"}
	out["shard.arrivals_per_drain"] = metric{ratio(tr.drained, tr.drains), "count"}
	modeled := 0.0
	if s.kind == batched {
		modeled = perTick(busyMax)
	}
	out["shard.modeled_ms"] = metric{modeled, "ms"}
	out["cluster.route_ms"] = metric{perTick(tr.self[lClusterRoute]), "ms"}
	out["cluster.link_msgs"] = metric{count(link.Sent), "msgs/tick"}
	out["cluster.link_bytes"] = metric{count(link.SentBytes), "B/tick"}
	out["cluster.object_handoffs"] = metric{count(fed.ObjectHandoffs), "count"}
	out["cluster.query_handoffs"] = metric{count(fed.QueryHandoffs), "count"}
	cv := 0.0
	if s.kind == federation {
		cv = coefficientOfVariation(busy)
	}
	out["cluster.node_busy_cv"] = metric{cv, "ratio"}
	out["protocol.bytes_per_uplink"] = metric{ratio(c.SentBytes(metrics.Uplink), c.Sent(metrics.Uplink)), "B"}
	out["protocol.bytes_per_bcast"] = metric{ratio(c.SentBytes(metrics.Broadcast), c.Sent(metrics.Broadcast)), "B"}
	np := float64(nPlain)
	out["runtime.alloc_mb"] = metric{float64(alloc) / (1 << 20) / np, "MB/tick"}
	out["runtime.gc_cycles"] = metric{float64(gcs) / np, "count"}
	out["runtime.gc_pause_ms"] = metric{float64(pauses) / 1e6 / np, "ms"}
	out["trace.overhead_pct"] = metric{100 * ((traced.Seconds()/n)/(plain.Seconds()/np) - 1), "%"}
	var probes []sample
	for _, r := range rounds {
		probes = append(probes, r.probes...)
	}
	out["host.probe_us"] = metric{us(probeTime(probes)), "us"}
	return nil
}

// writeSpans writes every traced span of the run as one JSON array.
func writeSpans(dir, name string, seed int64, rounds []*round) error {
	var spans []span
	for _, r := range rounds {
		if r.traced {
			spans = append(spans, r.tr.spans...)
		}
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, seed)), data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the nearest-rank p-th percentile of sorted samples.
func quantile(sorted []time.Duration, p int) time.Duration {
	i := (p*len(sorted)+99)/100 - 1
	return sorted[max(i, 0)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func coefficientOfVariation(xs []time.Duration) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += float64(x)
	}
	mean /= float64(len(xs))
	if mean == 0 {
		return 0
	}
	var v float64
	for _, x := range xs {
		v += (float64(x) - mean) * (float64(x) - mean)
	}
	return math.Sqrt(v/float64(len(xs))) / mean
}
