// ServingCluster: multi-stream serving with cross-frame micro-batching.
//
// One cluster owns N detector replicas (worker threads) sharing a single
// set of read-only pre-packed weights (Dense::packed_weights caches panels
// behind a double-checked atomic, so replicas share one copy). Many
// concurrent streams submit frames; each stream keeps its OWN Supervisor —
// its own mode-ladder position, circuit breaker, NoveltyMonitor, per-rung
// ECDF calibrations, deadline budgets, and HealthSnapshot. The cluster
// never mixes policy across streams.
//
// What IS shared is compute. A BatchAssembler (one per replica) gathers
// frames arriving within a bounded window across streams and runs the pure
// compute stages as batch-B forward passes — one stacked steering forward
// per precision, whose conv stages also give the VBP masks, and one
// [B, H*W] autoencoder GEMM — instead of B per-frame matvecs. The per-frame
// results are handed to each frame's own Supervisor through
// ProvidedCompute, and the supervisor replays its normal staged pipeline
// consuming them. Because every *decision* (budget, ladder, breaker,
// monitor, calibration) still runs inside the supervisor,
// and every batched kernel is bit-identical per sample to its batch-1
// counterpart (see NoveltyDetector's batched-scoring contract), scores and
// transitions are bit-identical regardless of which batch a frame landed
// in.
//
// A batch computes exactly what each frame's Supervisor::plan() names (read
// under the stream's lock), half-open probes included. The remaining misses
// — an earlier frame of the same stream in the batch moved its mode or
// breaker, or a stage failed — recompute the same bits in-stage, and
// recon_mispredicts counts the discarded reconstructions.
//
// Determinism: a frame is stamped with the clock at submit(); a batch seals
// when (a) it reaches max_batch, (b) a frame arrives outside the gather
// window of the batch head, or (c) the clock passes the head's window
// deadline. All three cuts depend only on arrival order and timestamps, so
// under a FakeClock the batch composition is a pure function of the arrival
// sequence — and since scores are batch-invariant anyway, even a different
// composition could not change them.
//
// Failure domain (optional, config.watchdog.enabled): a replica can be
// scheduled to crash, hang, run slow, or serve off corrupted weights via a
// faults::ReplicaFaultSchedule. A ReplicaWatchdog — driven from
// deterministic tick points on the submit/drain thread, never from a free-
// running thread — quarantines symptomatic replicas, migrates their queued
// streams wholesale to survivors (a stream's pending frames live on exactly
// one replica at a time, in arrival order, so per-stream processing order
// is preserved), retries with a bounded re-dispatch budget, and past the
// budget (or with every replica down) serves frames inline on the stream's
// own Supervisor — the batch-1 path, so scores stay bit-identical through
// every recovery route. Quarantined replicas are probed half-open with
// exponential backoff using a canary frame whose known-good steering angle
// is computed from a pristine copy of the weights at construction.
// Admission credits (config.admission_credits) bound each stream's pending
// frames; past the bound the stream's oldest queued frame is shed.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "faults/replica_faults.hpp"
#include "serving/supervisor.hpp"
#include "serving/watchdog.hpp"

namespace salnov::serving {

/// The cluster's operator knobs, shared by ClusterConfig and the trace
/// spec's cluster block.
struct ClusterKnobs {
  int64_t replicas = 1;  ///< worker threads (clamped to the stream count)
  /// Frames arriving within this window of a batch head are gathered into
  /// the same batch (0 gives per-frame batches of size 1 unless frames
  /// carry identical timestamps).
  int64_t gather_window_ns = 2'000'000;
  int64_t max_batch = 16;  ///< hard cap on one batched forward
  /// Replica failure detection/recovery; disabled by default (a cluster
  /// without a watchdog routes statically and never sheds).
  WatchdogConfig watchdog;
  /// Max pending (queued, unprocessed) frames per stream; past it the
  /// stream's oldest queued frame is shed. 0 disables admission control.
  int64_t admission_credits = 0;
};

/// ClusterKnobs' rows; the ServingCluster constructor checks them (and the
/// watchdog's, when it is enabled).
inline constexpr Knob<ClusterKnobs> kClusterKnobs[] = {
    {.flag = "replicas", .member = &ClusterKnobs::replicas,
     .doc = "batching worker replicas (at most one per stream)", .lo = 1, .hi = 256},
    {.flag = "batch-window-us", .member = &ClusterKnobs::gather_window_ns,
     .doc = "frames this close behind a batch head join its batch", .lo = 0, .hi = 6e7,
     .scale = 1000},
    {.flag = "max-batch", .member = &ClusterKnobs::max_batch,
     .doc = "cap on the frames of one batched forward", .lo = 1, .hi = 4096},
    {.flag = "admission-credits", .member = &ClusterKnobs::admission_credits,
     .doc = "pending frames per stream before its oldest is shed (0 = off)", .lo = 0, .hi = 1e6},
};

struct ClusterConfig : ClusterKnobs {
  int64_t streams = 1;   ///< independent per-stream supervisors
  /// Per-stream supervisor configuration (applied to every stream).
  SupervisorConfig supervisor;
  /// Retain per-frame ClusterResults for take_results(). Disable for soak
  /// runs where only health counters matter.
  bool keep_results = true;
  /// Scheduled replica faults; may be null. Must outlive the cluster. A
  /// slow-replica fault sleeps the worker under a live clock; under a
  /// FakeClock, where a sleep would advance the time every stream shares,
  /// its penalty is charged to the watchdog's accounting only.
  const faults::ReplicaFaultSchedule* replica_faults = nullptr;
};

/// One completed frame, tagged with its routing and batching context.
/// Frames served inline by their stream's Supervisor (re-dispatch budget
/// exhausted or no healthy replica) carry replica = -1, batch_seq = -1,
/// batch_size = 1.
struct ClusterResult {
  int64_t stream_id = 0;
  int64_t arrival_seq = 0;  ///< global submit order (0-based)
  int64_t arrival_ns = 0;   ///< clock at submit()
  int64_t sealed_ns = 0;    ///< clock when the containing batch sealed
  int64_t replica = 0;      ///< worker that served the frame (-1 = inline fallback)
  int64_t batch_seq = 0;    ///< per-replica batch counter
  int64_t batch_size = 0;   ///< frames in the containing batch
  ServeResult result;
};

class ServingCluster {
 public:
  /// `detector` must be fitted and outlive the cluster; `steering_model`
  /// follows the same contract as Supervisor's. `clock` may be null (a
  /// SteadyClock is created) and is shared by every stream's supervisor.
  /// Worker threads start immediately.
  ServingCluster(const core::NoveltyDetector& detector, nn::Sequential* steering_model,
                 ClusterConfig config, Clock* clock = nullptr);

  /// Drains and joins the workers.
  ~ServingCluster();

  /// Enqueues one frame on `stream_id`'s routed replica queue; never blocks
  /// on batched compute (it may process the frame inline when no replica is
  /// healthy). Runs a watchdog tick first, so quarantine/probe/restore
  /// decisions happen at deterministic points in the arrival sequence.
  /// Throws std::out_of_range on a bad stream id; submissions after stop()
  /// are dropped.
  void submit(int64_t stream_id, Image frame);

  /// Runs one watchdog pass at the current clock without submitting a frame.
  /// Normally the watchdog advances on submit()/drain(); a driver whose
  /// source has gone quiet (or that is deliberately pacing itself) can call
  /// this so quarantine, probe, and restore decisions keep up with the clock
  /// while no frames arrive. No-op after stop() or with the watchdog off.
  void tick();

  /// Holds workers before their next batch seal. Frames submitted while
  /// paused accumulate with their submit-time stamps; resume() processes
  /// them in order. Used by the trace driver to stage a deterministic
  /// arrival schedule under a FakeClock before any compute runs.
  void pause();
  void resume();

  /// Blocks until every submitted frame has been processed (seals partial
  /// batches rather than waiting out their gather windows). Runs a final
  /// watchdog tick first so frames stranded on a faulted replica migrate
  /// instead of being flushed through it. Implies resume().
  void drain();

  /// Drains, then stops and joins the workers. Idempotent.
  void stop();

  /// Moves out the accumulated per-frame results, sorted by arrival_seq
  /// (empty when config.keep_results is false).
  std::vector<ClusterResult> take_results();

  /// Moves out the failure-domain event log (quarantines, probes, restores,
  /// failovers, fallbacks, sheds) in decision order.
  std::vector<ClusterEvent> take_events();

  /// One stream's supervisor snapshot. Safe against concurrent processing.
  HealthSnapshot stream_health(int64_t stream_id) const;

  /// Cluster-wide snapshot: counters merged over streams by their
  /// kHealthCounters rule (sums; the served epoch is the maximum);
  /// mode/breaker/drift state are the most-degraded across streams;
  /// per-stage p50/p99 are exact nearest-rank percentiles over the union of
  /// every stream's current latency window. Embeds stats() as the
  /// snapshot's cluster section.
  HealthSnapshot aggregate_health() const;

  ClusterStats stats() const;

  /// Frames shed from `stream_id` by admission control.
  int64_t shed_for_stream(int64_t stream_id) const;

  /// Watchdog view of one replica (kHealthy when the watchdog is off).
  ReplicaState replica_state(int64_t replica) const;

  int64_t streams() const { return config_.streams; }
  int64_t replicas() const { return static_cast<int64_t>(replicas_.size()); }

  /// Direct access for tests (stream supervisors are only otherwise touched
  /// by their replica worker; do not call process() on these concurrently
  /// with submitted frames).
  Supervisor& stream_supervisor(int64_t stream_id);

 private:
  struct PendingFrame {
    int64_t stream_id = 0;
    int64_t arrival_seq = 0;
    int64_t arrival_ns = 0;
    int64_t redispatches = 0;  ///< failovers survived; bounded by the watchdog budget
    Image frame;
  };

  enum class SealReason { kMaxBatch, kWindow, kFlush };

  using StageWindows = std::array<std::vector<int64_t>, kStageCount>;

  /// stream_health(), also appending the stream's current stage latency
  /// windows to `windows` (when non-null) under the same stream lock.
  HealthSnapshot stream_health(int64_t stream_id, StageWindows* windows) const;

  struct Replica {
    int64_t index = 0;
    mutable std::mutex mu;  ///< guards queue / flags below
    std::condition_variable cv;
    std::deque<PendingFrame> queue;
    bool flush = false;     ///< seal partial batches immediately (drain)
    bool stopping = false;  ///< worker exits once the queue is empty
    int64_t batches_sealed = 0;
    /// Stamped by the worker each loop turn; silence past the watchdog's
    /// heartbeat timeout (live clock only) is an outage symptom.
    std::atomic<int64_t> last_heartbeat_ns{0};
    std::thread worker;
  };

  int64_t home_replica(int64_t stream_id) const {
    return stream_id % static_cast<int64_t>(replicas_.size());
  }

  /// True when the head of the queue must seal now (max_batch reached, a
  /// frame beyond the head's window arrived, the clock passed the head's
  /// deadline, or a flush/stop is pending). An active crash/hang fault
  /// suppresses sealing — unless a flush/stop is pending AND the watchdog
  /// is off (liveness wins when nothing can migrate the frames). Caller
  /// holds r.mu.
  bool should_seal(const Replica& r) const;

  /// Pops the sealed batch (up to max_batch frames within the head's
  /// window). Caller holds r.mu.
  std::vector<PendingFrame> seal_batch(Replica& r, SealReason& reason);

  void worker_loop(Replica& r);
  void process_batch(Replica& r, std::vector<PendingFrame> batch, SealReason reason,
                     int64_t sealed_ns, int64_t batch_seq);

  // --- completion: the one path every frame leaves by ---------------------

  /// Where a frame was served; the defaults describe an inline frame.
  struct BatchTag {
    int64_t sealed_ns = 0, replica = -1, seq = -1, size = 1;
  };

  /// Serves `frame` on its stream's Supervisor under the stream's lock and
  /// counts what `provided` (may be null) gave it. Builds every ClusterResult.
  ClusterResult serve(const PendingFrame& frame, const BatchTag& tag,
                      const ProvidedCompute* provided, ClusterStats& tally);

  /// Publishes results and their batch's counters, then retires each frame.
  void complete(const std::vector<ClusterResult>& served, const ClusterStats& tally,
                bool held_credits);

  /// Retires one frame, served or shed: returns its admission credit when it
  /// held one, then drops the outstanding count drain() waits on.
  void retire(int64_t stream_id, bool held_credit);

  // --- failure domain (all require routing_mu_ unless noted) --------------

  /// Watchdog pass: charge symptoms, quarantine, probe, restore, rebalance.
  /// No-op when the watchdog is off.
  void tick_locked(int64_t now_ns);

  /// Recomputes every stream's route (first healthy replica scanning from
  /// home; -1 when none) and migrates queued frames of re-routed streams
  /// wholesale, charging the re-dispatch budget. Frames past the budget —
  /// and every frame when no replica is healthy — are served inline.
  void rebalance_locked(int64_t now_ns);

  void quarantine_locked(int64_t replica, int64_t now_ns, int64_t detail);

  /// Serves one frame on its stream's Supervisor (batch-1 path, identical
  /// bits). `was_pending` says whether the frame held an admission credit
  /// (queued frames yes, direct submissions no).
  void process_inline_locked(PendingFrame frame, int64_t now_ns, bool was_pending);

  /// One canary evaluation of `replica`: rebuild a clone from the pristine
  /// weight bytes, apply any active weight-corruption fault, compare the
  /// canary frame's steering angle against the known-good value. True when
  /// the replica would serve good bits. Schedule-only verdict (true) when
  /// no steering model is configured.
  bool canary_passes_locked(int64_t replica, int64_t now_ns);

  /// Half-open probe verdict: no outage/degrading-slow fault active and the
  /// canary passes.
  bool probe_passes_locked(int64_t replica, int64_t now_ns);

  void push_event_locked(ClusterEventKind kind, int64_t at_ns, int64_t replica,
                         int64_t stream, int64_t detail);

  const core::NoveltyDetector& detector_;
  nn::Sequential* steering_model_;
  ClusterConfig config_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;
  const bool sleep_on_slow_;  ///< live clock: a slow-replica penalty really sleeps

  std::vector<std::unique_ptr<Supervisor>> supervisors_;  ///< one per stream
  std::vector<std::unique_ptr<Replica>> replicas_;

  /// Serializes one stream's supervisor access (worker processing, inline
  /// fallback, health snapshots). Lock order: routing_mu_ -> stream_mu_ ->
  /// results_mu_; workers take only the latter two.
  std::unique_ptr<std::mutex[]> stream_mu_;

  /// Failure-domain state: watchdog, per-stream routes, shed accounting,
  /// event log, chaos counters. All mutated at tick points on the
  /// submit/drain thread under routing_mu_.
  mutable std::mutex routing_mu_;
  std::unique_ptr<ReplicaWatchdog> watchdog_;  ///< null when disabled
  std::vector<int64_t> routing_;               ///< stream -> replica (-1 = inline)
  std::vector<int64_t> shed_per_stream_;
  std::vector<ClusterEvent> events_;
  ClusterStats chaos_stats_;  ///< only the failure-domain counters are used

  /// Queued-unprocessed frames per stream (admission credits). Atomic so
  /// workers can decrement without routing_mu_.
  std::unique_ptr<std::atomic<int64_t>[]> pending_per_stream_;

  /// Canary probe state: pristine steering weights serialized at
  /// construction, a fixed synthetic frame, and its known-good angle.
  bool has_canary_ = false;
  std::string pristine_steering_bytes_;
  Image canary_frame_;
  double canary_known_good_ = 0.0;

  std::atomic<int64_t> next_seq_{0};
  std::atomic<bool> paused_{false};
  std::atomic<bool> stopped_{false};

  /// Accepted frames not yet retired; retire() notifies idle_cv_, which
  /// drain() waits on.
  std::atomic<int64_t> outstanding_{0};
  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  mutable std::mutex results_mu_;  ///< guards results_ and stats_
  std::vector<ClusterResult> results_;
  ClusterStats stats_;
};

}  // namespace salnov::serving
