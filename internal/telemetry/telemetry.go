// Package telemetry is the observability substrate of the simulation stack:
// process-wide metrics (atomic counters, gauges, fixed-bucket histograms),
// a bounded-memory execution-trace recorder exporting Chrome trace_event
// JSON, and an opt-in HTTP endpoint serving expvar, net/http/pprof, and a
// JSON metric snapshot.
//
// The package is zero-dependency (stdlib only) so every layer of the stack —
// ioa, sched, system, oracle, valence, chaos — can import it without cycles.
// Instrumentation sites hold a Sink interface value that is nil when
// telemetry is off, so the disabled path costs one predictable branch:
//
//	if s.tel != nil {
//	        s.tel.Count(telemetry.CEventsApplied, 1)
//	}
//
// This mirrors how the oracle layer composes with ioa.System's post-Apply
// observer (a nil observer costs one branch per Apply), and the same
// guarantee holds here: attaching telemetry never perturbs scheduling — the
// golden-trace suite pins byte-identical executions with telemetry off and
// on (TestGoldenTracesTelemetryOn).
//
// Metrics are identified by small integer constants (Metric) rather than
// strings so the hot path is an array index plus an atomic add — no map
// lookups, no allocation.  The Registry names them only at snapshot time.
package telemetry

import "time"

// Metric identifies one registered metric.  The constant's prefix states the
// kind: C* counters (monotonic), G* gauges (last/max value), H* histograms.
type Metric uint8

// Registered metrics.  What each one means in paper terms is documented in
// DESIGN.md §10 ("Observability planes").
const (
	// CEventsApplied counts events performed by ioa.System.Apply (owner
	// Fire + deliveries + trace recording), including internal events.
	CEventsApplied Metric = iota
	// CDeliveries counts action deliveries to accepting automata (the
	// same-named input synchronizations of composition, §2.3).
	CDeliveries
	// CCrashes counts crash events applied (§4.4 crash automaton outputs).
	CCrashes
	// CSchedSteps counts actions fired by a scheduler's main loop.
	CSchedSteps
	// CGateVetoes counts enabled actions held back by an Options.Gate
	// (environment-controlled timing freedom, §2.4).
	CGateVetoes
	// COracleSweeps counts full enabled-set/delivery-set oracle sweeps.
	COracleSweeps
	// CValenceNodes counts distinct execution-tree nodes created (§8).
	CValenceNodes
	// CValenceEdges counts execution-tree edges recorded.
	CValenceEdges
	// CValenceExpansions counts node expansions (frontier pops).
	CValenceExpansions
	// CWorkerBusyNs accumulates nanoseconds valence workers spent expanding
	// nodes; utilization = busy / (workers × wall).
	CWorkerBusyNs
	// CFixpointRounds counts parallel valence-fixpoint sweep rounds.
	CFixpointRounds
	// CChaosRuns counts chaos executions completed by a sweep.
	CChaosRuns
	// CChaosFailures counts chaos executions that violated their spec.
	CChaosFailures
	// CMsgDropped counts messages dropped by lossy links (adversarial
	// network layer; the paper's §4.3 channels never drop).
	CMsgDropped
	// CMsgDuplicated counts messages duplicated by lossy links.
	CMsgDuplicated
	// CMsgReordered counts messages swapped past their predecessor by
	// lossy links (bounded FIFO violation).
	CMsgReordered
	// CValencePruned counts enabled execution-tree steps not expanded under
	// partial-order reduction (valence.Config.Reduce).
	CValencePruned
	// CValenceSleepHits counts pruned steps inherited from the parent's
	// sleep set (child kept the parent's ample cluster).
	CValenceSleepHits
	// CValenceReduceRounds counts reduction proviso analysis rounds (cycle
	// and bivalent-completeness re-expansion fixpoint).
	CValenceReduceRounds
	// CLiveSignals counts message-delivery signals the live runtime handed
	// to its transport (one per message enqueued on a channel automaton).
	CLiveSignals
	// CLiveNudges counts live service wakeups triggered by a fired action's
	// delivery candidates (as opposed to heartbeat-interval wakeups).
	CLiveNudges
	// CSuspicionAdded counts suspicion-set additions by fired FD outputs (a
	// location entering the suspect set of some observer's detector copy):
	// the sum of causal.Transition.Added over the run's trace, recorded by
	// causal.RecordQoS once the run is over.
	CSuspicionAdded
	// CSuspicionRemoved counts suspicion-set removals (a location leaving
	// the suspect set of some observer's detector copy): the sum of
	// causal.Transition.Removed, recorded with CSuspicionAdded.
	CSuspicionRemoved
	// GValenceFrontier is the current exploration frontier width.
	GValenceFrontier
	// GValenceFrontierPeak is the high-water frontier width of the run.
	GValenceFrontierPeak
	// GValenceWorkers is the configured exploration worker count.
	GValenceWorkers
	// GPartitionActive is 1 while a partition gate is splitting the
	// system, 0 otherwise.
	GPartitionActive
	// GLiveServices is the number of automaton service goroutines a live
	// runtime is currently running.
	GLiveServices
	// HChannelDepth is the distribution of channel queue depths observed at
	// each enqueue (in-flight messages per §4.3 FIFO channel).
	HChannelDepth
	// HOracleSweepNs is the distribution of oracle sweep latencies.
	HOracleSweepNs
	// HPartitionSteps is the distribution of healed-partition durations in
	// scheduler steps (observed at heal time; permanent partitions never
	// sample it).
	HPartitionSteps
	// HAmpleSize is the distribution of ample-set sizes (steps expanded) at
	// reduced execution-tree nodes.
	HAmpleSize
	// HDetectionLatency is the distribution of detection latencies in trace
	// events: crash → permanent detection of the crashed location, per
	// detector family and observer (every causal.Detection.Steps, recorded
	// by causal.RecordQoS for simulated and live runs alike; the wall-clock
	// figure is causal.Detection.Ns).
	HDetectionLatency
	// HMistakeDuration is the distribution of wrong-suspicion interval
	// lengths in trace events: an observer suspecting a location that had
	// not crashed, until the suspicion is removed, the suspect crashes or the
	// trace ends (every causal.Mistake.Steps).
	HMistakeDuration

	numMetrics
)

// metricNames are the snake_case snapshot keys, indexed by Metric.
var metricNames = [numMetrics]string{
	CEventsApplied:       "events_applied",
	CDeliveries:          "deliveries",
	CCrashes:             "crashes",
	CSchedSteps:          "sched_steps",
	CGateVetoes:          "gate_vetoes",
	COracleSweeps:        "oracle_sweeps",
	CValenceNodes:        "valence_nodes",
	CValenceEdges:        "valence_edges",
	CValenceExpansions:   "valence_expansions",
	CWorkerBusyNs:        "worker_busy_ns",
	CFixpointRounds:      "fixpoint_rounds",
	CChaosRuns:           "chaos_runs",
	CChaosFailures:       "chaos_failures",
	CMsgDropped:          "msgs_dropped",
	CMsgDuplicated:       "msgs_duplicated",
	CMsgReordered:        "msgs_reordered",
	CValencePruned:       "valence_pruned",
	CValenceSleepHits:    "valence_sleep_hits",
	CValenceReduceRounds: "valence_reduce_rounds",
	CLiveSignals:         "live_signals",
	CLiveNudges:          "live_nudges",
	CSuspicionAdded:      "suspicion_added",
	CSuspicionRemoved:    "suspicion_removed",
	GValenceFrontier:     "valence_frontier",
	GValenceFrontierPeak: "valence_frontier_peak",
	GValenceWorkers:      "valence_workers",
	GPartitionActive:     "partition_active",
	GLiveServices:        "live_services",
	HChannelDepth:        "channel_depth",
	HOracleSweepNs:       "oracle_sweep_ns",
	HPartitionSteps:      "partition_steps",
	HAmpleSize:           "ample_size",
	HDetectionLatency:    "detection_latency_steps",
	HMistakeDuration:     "mistake_duration_steps",
}

// Name returns the metric's snapshot key.
func (m Metric) Name() string { return metricNames[m] }

// isGauge marks the metrics reported under "gauges" rather than "counters".
var isGauge = [numMetrics]bool{
	GValenceFrontier:     true,
	GValenceFrontierPeak: true,
	GValenceWorkers:      true,
	GPartitionActive:     true,
	GLiveServices:        true,
}

// Category classifies trace events for the Chrome trace "cat" field.
type Category uint8

// Trace-event categories, one per instrumented plane of the stack.
const (
	CatSched   Category = iota // scheduler: one event per fired step
	CatIOA                     // ioa.System.Apply: action fires and deliveries
	CatCrash                   // crash events
	CatOracle                  // differential-oracle sweeps
	CatValence                 // execution-tree engine: expansions, rounds, phases
	CatChaos                   // chaos runner: one span per executed run
	CatLive                    // live runtime: service wakeups, transport signals
	CatCausal                  // causal provenance: suspicion chains, flow arrows
	numCategories
)

var categoryNames = [numCategories]string{
	CatSched:   "sched",
	CatIOA:     "ioa",
	CatCrash:   "crash",
	CatOracle:  "oracle",
	CatValence: "valence",
	CatChaos:   "chaos",
	CatLive:    "live",
	CatCausal:  "causal",
}

// Name returns the category's Chrome-trace "cat" value.
func (c Category) Name() string { return categoryNames[c] }

// Sink receives instrumentation from hot paths.  Implementations must be
// safe for concurrent use from any number of goroutines.  Instrumentation
// sites hold a Sink that is nil when telemetry is disabled and guard every
// call with a nil check; Sink values must therefore never be typed-nil
// pointers wrapped in the interface (use an untyped nil).
type Sink interface {
	// Count adds delta to counter m.
	Count(m Metric, delta int64)
	// SetGauge stores v as gauge m's current value.
	SetGauge(m Metric, v int64)
	// GaugeMax raises gauge m to v if v exceeds its current value.
	GaugeMax(m Metric, v int64)
	// Observe records sample v in histogram m (no-op for non-histograms).
	Observe(m Metric, v int64)
	// IncTask counts one action fired in the flattened task with index idx
	// (the "actions fired per task" vector; see Registry.SetTaskLabels).
	IncTask(idx int)
	// Span records a completed trace span that started at startNs (a value
	// previously obtained from Now) and ends now, on virtual thread tid,
	// with one free integer argument.
	Span(cat Category, name string, startNs int64, tid int32, arg int64)
	// Instant records an instantaneous trace event.
	Instant(cat Category, name string, tid int32, arg int64)
	// Now returns the sink's monotonic clock in nanoseconds, for Span start
	// times and latency measurements.
	Now() int64
}

// TraceSensing is an optional Sink extension reporting whether the tracing
// plane is actually attached — i.e. someone intends to export the trace
// ring.  Instrumentation sites that must *format* a label (rather than pass
// a pre-existing string) consult it once at attach time and skip the
// formatting when no exporter is wired, so a metrics-only sink never makes
// the hot path allocate.  Sinks that don't implement it are treated as
// not tracing.
type TraceSensing interface {
	TracingActive() bool
}

// FlowPhase distinguishes the two ends of a Chrome trace flow arrow.
type FlowPhase uint8

// Flow-event phases, mapping to Chrome trace_event ph "s" (start) and
// "f" (finish).  Perfetto draws an arrow from each start to the finish
// sharing its id.
const (
	FlowStart FlowPhase = iota
	FlowFinish
)

// FlowSink is an optional Sink extension for causality arrows: paired flow
// events (Chrome trace ph "s"/"f") that renderers such as Perfetto draw as
// arrows between threads.  The causal provenance engine uses it to overlay
// suspicion-propagation chains — send event on the sender's track, matching
// deliver on the receiver's — onto a recorded execution trace.  Both
// methods take explicit timestamps (values from Now, or reconstructed
// offsets) because provenance is computed post-hoc, after the events being
// annotated.  Sinks that don't implement FlowSink simply don't render
// arrows; instrumentation sites must type-assert and tolerate absence.
type FlowSink interface {
	// FlowAt records one end of a flow arrow with identity id at time tsNs
	// on virtual thread tid.
	FlowAt(ph FlowPhase, cat Category, name string, id uint64, tsNs int64, tid int32)
	// InstantAt records an instantaneous trace event at an explicit time.
	InstantAt(cat Category, name string, tsNs int64, tid int32, arg int64)
}

// epoch anchors the package's monotonic clock; all Recorder timestamps and
// Sink.Now values are nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return time.Since(epoch).Nanoseconds() }
