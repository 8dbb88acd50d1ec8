#include "serving/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "driving/steering_trainer.hpp"
#include "faults/fault_injector.hpp"
#include "nn/model_io.hpp"
#include "tensor/rng.hpp"

namespace salnov::serving {

ServingCluster::ServingCluster(const core::NoveltyDetector& detector,
                               nn::Sequential* steering_model, ClusterConfig config,
                               Clock* clock)
    : detector_(detector),
      steering_model_(steering_model),
      config_(std::move(config)),
      owned_clock_(clock == nullptr ? std::make_unique<SteadyClock>() : nullptr),
      clock_(clock == nullptr ? owned_clock_.get() : clock),
      sleep_on_slow_(dynamic_cast<FakeClock*>(clock_) == nullptr) {
  if (config_.streams < 1) {
    throw std::invalid_argument("ServingCluster: streams must be >= 1");
  }
  check_knobs(kClusterKnobs, static_cast<const ClusterKnobs&>(config_), "ServingCluster");

  supervisors_.reserve(static_cast<size_t>(config_.streams));
  for (int64_t s = 0; s < config_.streams; ++s) {
    supervisors_.push_back(
        std::make_unique<Supervisor>(detector_, steering_model_, config_.supervisor, clock_));
  }
  stream_mu_ = std::make_unique<std::mutex[]>(static_cast<size_t>(config_.streams));
  pending_per_stream_ =
      std::make_unique<std::atomic<int64_t>[]>(static_cast<size_t>(config_.streams));
  shed_per_stream_.assign(static_cast<size_t>(config_.streams), 0);

  // A replica beyond one-per-stream could never receive a frame.
  const int64_t replica_count = std::min(config_.replicas, config_.streams);
  replicas_.reserve(static_cast<size_t>(replica_count));
  for (int64_t i = 0; i < replica_count; ++i) {
    auto replica = std::make_unique<Replica>();
    replica->index = i;
    replica->last_heartbeat_ns.store(clock_->now_ns(), std::memory_order_release);
    replicas_.push_back(std::move(replica));
  }
  routing_.resize(static_cast<size_t>(config_.streams));
  for (int64_t s = 0; s < config_.streams; ++s) {
    routing_[static_cast<size_t>(s)] = s % replica_count;
  }

  if (config_.watchdog.enabled) {
    watchdog_ = std::make_unique<ReplicaWatchdog>(replica_count, config_.watchdog);
    if (steering_model_ != nullptr) {
      // Canary probe material: a pristine serialized copy of the steering
      // weights (each evaluation rebuilds a throwaway clone from it, so
      // simulated corruption never touches the shared weights) and a fixed
      // synthetic frame with its known-good angle.
      std::ostringstream bytes;
      nn::save_model(bytes, *steering_model_);
      pristine_steering_bytes_ = bytes.str();
      const int64_t h = detector_.config().height;
      const int64_t w = detector_.config().width;
      canary_frame_ = Image(h, w);
      for (int64_t y = 0; y < h; ++y) {
        for (int64_t x = 0; x < w; ++x) {
          canary_frame_(y, x) = static_cast<float>((y * w + x) % 17) / 16.0f;
        }
      }
      canary_known_good_ = driving::predict_steering(*steering_model_, canary_frame_);
      has_canary_ = std::isfinite(canary_known_good_);
    }
  }

  for (auto& replica : replicas_) {
    replica->worker = std::thread([this, r = replica.get()] { worker_loop(*r); });
  }
}

ServingCluster::~ServingCluster() { stop(); }

void ServingCluster::submit(int64_t stream_id, Image frame) {
  if (stream_id < 0 || stream_id >= config_.streams) {
    throw std::out_of_range("ServingCluster: bad stream id " + std::to_string(stream_id));
  }
  if (stopped_.load(std::memory_order_acquire)) return;
  const size_t s = static_cast<size_t>(stream_id);

  std::lock_guard<std::mutex> route_lock(routing_mu_);
  // Stamp under routing_mu_ so the global sequence, the timestamps, and the
  // queue push order agree even with concurrent submitters — rebalancing
  // merges queues by arrival_seq and relies on queues staying sorted.
  PendingFrame pending;
  pending.stream_id = stream_id;
  pending.arrival_seq = next_seq_.fetch_add(1, std::memory_order_acq_rel);
  pending.arrival_ns = clock_->now_ns();
  pending.frame = std::move(frame);
  const int64_t now = pending.arrival_ns;

  tick_locked(now);

  if (config_.admission_credits > 0 &&
      pending_per_stream_[s].load(std::memory_order_acquire) >= config_.admission_credits) {
    // Credits exhausted: shed this stream's OLDEST queued frame so the
    // freshest data survives. When every pending frame is already inside a
    // sealed batch there is nothing left to shed but the new arrival.
    bool shed_queued = false;
    const int64_t route = routing_[s];
    if (route >= 0) {
      Replica& r = *replicas_[static_cast<size_t>(route)];
      std::lock_guard<std::mutex> lock(r.mu);
      for (auto it = r.queue.begin(); it != r.queue.end(); ++it) {
        if (it->stream_id == stream_id) {
          push_event_locked(ClusterEventKind::kShed, now, route, stream_id, it->arrival_seq);
          r.queue.erase(it);
          shed_queued = true;
          break;
        }
      }
    }
    ++shed_per_stream_[s];
    ++chaos_stats_.shed_frames;
    if (!shed_queued) {
      push_event_locked(ClusterEventKind::kShed, now, -1, stream_id, pending.arrival_seq);
      return;
    }
    retire(stream_id, /*held_credit=*/true);
    // fall through: the incoming frame is admitted in the shed one's place
  }

  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  const int64_t route = routing_[s];
  if (route < 0) {
    // Every replica is quarantined: serve on the stream's own Supervisor.
    process_inline_locked(std::move(pending), now, /*was_pending=*/false);
    return;
  }
  pending_per_stream_[s].fetch_add(1, std::memory_order_acq_rel);
  Replica& replica = *replicas_[static_cast<size_t>(route)];
  {
    std::lock_guard<std::mutex> lock(replica.mu);
    replica.queue.push_back(std::move(pending));
  }
  replica.cv.notify_all();
}

void ServingCluster::tick() {
  if (stopped_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> route_lock(routing_mu_);
  tick_locked(clock_->now_ns());
}

void ServingCluster::pause() { paused_.store(true, std::memory_order_release); }

void ServingCluster::resume() {
  if (!paused_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& replica : replicas_) {
    // A worker that slept through the pause has a stale heartbeat; re-stamp
    // so the watchdog's silence check starts from the resume point.
    replica->last_heartbeat_ns.store(clock_->now_ns(), std::memory_order_release);
    // Notify under the replica lock: a worker that read paused_ == true but
    // has not entered wait() yet still holds mu, so it cannot miss this.
    std::lock_guard<std::mutex> lock(replica->mu);
    replica->cv.notify_all();
  }
}

void ServingCluster::drain() {
  {
    // Final watchdog pass before the flush: frames stranded on a replica
    // with an active outage fault must migrate (or fall back inline), not
    // be flushed through the "dead" replica — so watchdog-enabled drains
    // force-quarantine such replicas even below the miss threshold. It runs
    // before resume(): paused workers must not seal batches from queues
    // this pass is about to migrate, or the batch composition would depend
    // on thread scheduling.
    std::lock_guard<std::mutex> route_lock(routing_mu_);
    const int64_t now = clock_->now_ns();
    tick_locked(now);
    if (watchdog_ && config_.replica_faults != nullptr) {
      bool changed = false;
      for (auto& replica : replicas_) {
        if (!watchdog_->healthy(replica->index)) continue;
        if (!config_.replica_faults->outage_active(replica->index, now)) continue;
        bool has_work = false;
        {
          std::lock_guard<std::mutex> lock(replica->mu);
          has_work = !replica->queue.empty();
        }
        if (has_work) {
          quarantine_locked(replica->index, now, /*detail=*/3);
          changed = true;
        }
      }
      if (changed) rebalance_locked(now);
    }
  }
  resume();
  for (auto& replica : replicas_) {
    {
      std::lock_guard<std::mutex> lock(replica->mu);
      replica->flush = true;
    }
    replica->cv.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(idle_mu_);
    idle_cv_.wait(lock, [&] { return outstanding_.load(std::memory_order_acquire) == 0; });
  }
  for (auto& replica : replicas_) {
    std::lock_guard<std::mutex> lock(replica->mu);
    replica->flush = false;
  }
}

void ServingCluster::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  resume();
  for (auto& replica : replicas_) {
    {
      std::lock_guard<std::mutex> lock(replica->mu);
      replica->stopping = true;  // drains the queue, then the worker exits
    }
    replica->cv.notify_all();
  }
  for (auto& replica : replicas_) {
    if (replica->worker.joinable()) replica->worker.join();
  }
}

std::vector<ClusterResult> ServingCluster::take_results() {
  std::vector<ClusterResult> out;
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    out.swap(results_);
  }
  std::sort(out.begin(), out.end(), [](const ClusterResult& a, const ClusterResult& b) {
    return a.arrival_seq < b.arrival_seq;
  });
  return out;
}

std::vector<ClusterEvent> ServingCluster::take_events() {
  std::lock_guard<std::mutex> lock(routing_mu_);
  std::vector<ClusterEvent> out;
  out.swap(events_);
  return out;
}

HealthSnapshot ServingCluster::stream_health(int64_t stream_id) const {
  return stream_health(stream_id, nullptr);
}

HealthSnapshot ServingCluster::stream_health(int64_t stream_id, StageWindows* windows) const {
  if (stream_id < 0 || stream_id >= config_.streams) {
    throw std::out_of_range("ServingCluster: bad stream id " + std::to_string(stream_id));
  }
  HealthSnapshot h;
  {
    std::lock_guard<std::mutex> lock(stream_mu_[static_cast<size_t>(stream_id)]);
    const Supervisor& supervisor = *supervisors_[static_cast<size_t>(stream_id)];
    h = supervisor.health();
    if (windows != nullptr) {
      for (int i = 0; i < kStageCount; ++i) {
        const auto& window = supervisor.stage_ring(static_cast<Stage>(i)).window();
        std::vector<int64_t>& merged = (*windows)[static_cast<size_t>(i)];
        merged.insert(merged.end(), window.begin(), window.end());
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(routing_mu_);
    h.queue_shed = shed_per_stream_[static_cast<size_t>(stream_id)];
  }
  return h;
}

namespace {

int drift_severity(const std::string& state) {
  if (state == "drifted") return 3;
  if (state == "alert") return 2;
  if (state == "stable") return 1;
  return 0;  // "off"
}

}  // namespace

HealthSnapshot ServingCluster::aggregate_health() const {
  HealthSnapshot agg;
  StageWindows windows;
  for (int64_t s = 0; s < config_.streams; ++s) {
    const HealthSnapshot h = stream_health(s, &windows);
    // Ladder rank, not enum ordinal: the q8 rungs are appended to the enum
    // (serialized ordinals are load-bearing) but sit mid-ladder.
    if (core::rung(h.mode).rank > core::rung(agg.mode).rank) {
      agg.mode = h.mode;
    }
    if (breaker_severity(h.breaker_state) > breaker_severity(agg.breaker_state)) {
      agg.breaker_state = h.breaker_state;
    }
    for (const auto& row : kHealthCounters) row.merge_into(agg, h);
    if (drift_severity(h.drift_state) > drift_severity(agg.drift_state)) {
      agg.drift_state = h.drift_state;
    }
    for (size_t i = 0; i < agg.stages.size(); ++i) {
      agg.stages[i].name = h.stages[i].name;
      agg.stages[i].overruns += h.stages[i].overruns;
      agg.stages[i].samples += h.stages[i].samples;
    }
  }
  for (size_t i = 0; i < agg.stages.size(); ++i) {
    agg.stages[i].p50_ns = nearest_rank_ns(windows[i], 0.50);
    agg.stages[i].p99_ns = nearest_rank_ns(std::move(windows[i]), 0.99);
  }
  agg.has_cluster = true;
  agg.cluster = stats();
  return agg;
}

ClusterStats ServingCluster::stats() const {
  std::scoped_lock lock(routing_mu_, results_mu_);
  ClusterStats out = stats_;  // worker-side counters
  for (const auto& row : kClusterCounters) row.merge_into(out, chaos_stats_);
  return out;
}

int64_t ServingCluster::shed_for_stream(int64_t stream_id) const {
  if (stream_id < 0 || stream_id >= config_.streams) {
    throw std::out_of_range("ServingCluster: bad stream id " + std::to_string(stream_id));
  }
  std::lock_guard<std::mutex> lock(routing_mu_);
  return shed_per_stream_[static_cast<size_t>(stream_id)];
}

ReplicaState ServingCluster::replica_state(int64_t replica) const {
  if (replica < 0 || replica >= static_cast<int64_t>(replicas_.size())) {
    throw std::out_of_range("ServingCluster: bad replica " + std::to_string(replica));
  }
  std::lock_guard<std::mutex> lock(routing_mu_);
  return watchdog_ ? watchdog_->state(replica) : ReplicaState::kHealthy;
}

Supervisor& ServingCluster::stream_supervisor(int64_t stream_id) {
  if (stream_id < 0 || stream_id >= config_.streams) {
    throw std::out_of_range("ServingCluster: bad stream id " + std::to_string(stream_id));
  }
  return *supervisors_[static_cast<size_t>(stream_id)];
}

// --- failure domain ---------------------------------------------------------

void ServingCluster::push_event_locked(ClusterEventKind kind, int64_t at_ns, int64_t replica,
                                       int64_t stream, int64_t detail) {
  ClusterEvent event;
  event.kind = kind;
  event.at_ns = at_ns;
  event.replica = replica;
  event.stream = stream;
  event.detail = detail;
  events_.push_back(event);
}

void ServingCluster::quarantine_locked(int64_t replica, int64_t now_ns, int64_t detail) {
  watchdog_->quarantine(replica, now_ns);
  ++chaos_stats_.quarantines;
  push_event_locked(ClusterEventKind::kQuarantine, now_ns, replica, -1, detail);
}

bool ServingCluster::canary_passes_locked(int64_t replica, int64_t now_ns) {
  if (!has_canary_) return true;
  ++chaos_stats_.canary_checks;
  // A fresh clone per evaluation: corruption is applied to the clone, never
  // to the shared weights — the serving path's bit-identity is untouchable.
  std::istringstream in(pristine_steering_bytes_);
  nn::Sequential clone = nn::load_model(in);
  if (config_.replica_faults != nullptr) {
    const faults::ReplicaFault* corrupt = config_.replica_faults->active_of_kind(
        replica, faults::ReplicaFaultKind::kWeightCorrupt, now_ns);
    if (corrupt != nullptr) {
      Rng rng(corrupt->seed);
      faults::flip_weight_bits(clone, corrupt->weight_bits, rng);
    }
  }
  const double angle = driving::predict_steering(clone, canary_frame_);
  const bool pass = std::isfinite(angle) &&
                    std::abs(angle - canary_known_good_) <= config_.watchdog.canary_epsilon;
  if (!pass) ++chaos_stats_.canary_failures;
  return pass;
}

bool ServingCluster::probe_passes_locked(int64_t replica, int64_t now_ns) {
  if (config_.replica_faults != nullptr) {
    if (config_.replica_faults->outage_active(replica, now_ns)) return false;
    if (config_.replica_faults->slow_penalty_ns(replica, now_ns) >
        config_.watchdog.batch_deadline_ns) {
      return false;
    }
  }
  return canary_passes_locked(replica, now_ns);
}

void ServingCluster::tick_locked(int64_t now_ns) {
  if (!watchdog_) return;
  const faults::ReplicaFaultSchedule* sched = config_.replica_faults;
  bool changed = false;
  for (auto& replica_ptr : replicas_) {
    Replica& r = *replica_ptr;
    const int64_t i = r.index;
    const ReplicaState state = watchdog_->state(i);
    if (state == ReplicaState::kHealthy) {
      bool quarantine = false;
      int64_t detail = 0;
      if (sched != nullptr) {
        // Missed batch deadlines: an outage window (crash/hang) or a slow
        // fault whose penalty alone exceeds the batch deadline accrues one
        // miss per deadline period. This is the deterministic stand-in for
        // wall-clock symptom observation — replays see identical misses.
        const faults::ReplicaFault* out =
            sched->active_of_kind(i, faults::ReplicaFaultKind::kCrash, now_ns);
        if (out == nullptr) {
          out = sched->active_of_kind(i, faults::ReplicaFaultKind::kHang, now_ns);
        }
        if (out == nullptr &&
            sched->slow_penalty_ns(i, now_ns) > config_.watchdog.batch_deadline_ns) {
          out = sched->active_of_kind(i, faults::ReplicaFaultKind::kSlow, now_ns);
        }
        if (out != nullptr && watchdog_->charge_outage(i, out->start_ns, now_ns)) {
          quarantine = true;
          detail = 0;
        }
      }
      if (!quarantine && !paused_.load(std::memory_order_acquire)) {
        // Heartbeat silence (live clock): only meaningful when the replica
        // has work it should be stamping progress against.
        bool has_work = false;
        {
          std::lock_guard<std::mutex> lock(r.mu);
          has_work = !r.queue.empty();
        }
        if (has_work &&
            watchdog_->charge_heartbeat_silence(
                i, r.last_heartbeat_ns.load(std::memory_order_acquire), now_ns)) {
          quarantine = true;
          detail = 2;
        }
      }
      if (!quarantine && has_canary_ && watchdog_->canary_due(i, now_ns)) {
        if (!canary_passes_locked(i, now_ns)) {
          if (watchdog_->charge_canary_failure(i)) {
            quarantine = true;
            detail = 1;
          }
        } else {
          watchdog_->note_canary_ok(i);
        }
      }
      if (quarantine) {
        quarantine_locked(i, now_ns, detail);
        changed = true;
      }
    } else if (state == ReplicaState::kQuarantined && watchdog_->probe_due(i, now_ns)) {
      // Half-open probe. Success and failure both resolve within this tick,
      // so routing only ever sees kHealthy / kQuarantined.
      watchdog_->begin_probe(i);
      ++chaos_stats_.probe_attempts;
      if (probe_passes_locked(i, now_ns)) {
        watchdog_->restore(i);
        ++chaos_stats_.restores;
        push_event_locked(ClusterEventKind::kRestore, now_ns, i, -1, 0);
        changed = true;
      } else {
        watchdog_->probe_failed(i, now_ns);
        ++chaos_stats_.probe_failures;
        push_event_locked(ClusterEventKind::kProbeFailure, now_ns, i, -1, 0);
      }
    }
  }
  if (changed) rebalance_locked(now_ns);
}

void ServingCluster::rebalance_locked(int64_t now_ns) {
  const int64_t replica_count = static_cast<int64_t>(replicas_.size());
  for (int64_t s = 0; s < config_.streams; ++s) {
    // Deterministic target: first healthy replica scanning from home, so a
    // restore migrates streams straight back and every run agrees on the
    // route without any load feedback.
    int64_t target = -1;
    for (int64_t k = 0; k < replica_count; ++k) {
      const int64_t cand = (home_replica(s) + k) % replica_count;
      if (watchdog_->healthy(cand)) {
        target = cand;
        break;
      }
    }
    const int64_t old_route = routing_[static_cast<size_t>(s)];
    if (target == old_route) continue;

    // Migrate the stream's queued frames wholesale — a stream's pending
    // frames live on exactly one replica, in arrival order, so per-stream
    // processing order survives the move.
    std::deque<PendingFrame> moving;
    if (old_route >= 0) {
      Replica& src = *replicas_[static_cast<size_t>(old_route)];
      std::lock_guard<std::mutex> lock(src.mu);
      std::deque<PendingFrame> keep;
      for (PendingFrame& pf : src.queue) {
        (pf.stream_id == s ? moving : keep).push_back(std::move(pf));
      }
      src.queue.swap(keep);
    }
    routing_[static_cast<size_t>(s)] = target;
    push_event_locked(ClusterEventKind::kFailover, now_ns, target, s,
                      static_cast<int64_t>(moving.size()));
    ++chaos_stats_.failovers;
    if (moving.empty()) continue;

    if (target < 0) {
      // Every replica is down: the whole backlog falls back inline, oldest
      // first, on the stream's own Supervisor.
      for (PendingFrame& pf : moving) {
        process_inline_locked(std::move(pf), now_ns, /*was_pending=*/true);
      }
      continue;
    }

    // Charge the re-dispatch budget. Budget-exhausted frames are always the
    // oldest prefix (a frame submitted later has survived at most as many
    // failovers), so the inline fallback preserves arrival order too.
    std::deque<PendingFrame> requeue;
    for (PendingFrame& pf : moving) {
      pf.redispatches += 1;
      if (pf.redispatches > config_.watchdog.max_redispatches) {
        process_inline_locked(std::move(pf), now_ns, /*was_pending=*/true);
      } else {
        requeue.push_back(std::move(pf));
      }
    }
    if (requeue.empty()) continue;
    chaos_stats_.redispatched_frames += static_cast<int64_t>(requeue.size());
    push_event_locked(ClusterEventKind::kRedispatch, now_ns, target, s,
                      static_cast<int64_t>(requeue.size()));
    Replica& dst = *replicas_[static_cast<size_t>(target)];
    {
      // Merge by arrival_seq: the destination queue stays globally sorted,
      // which the seal rules (head-window cuts) and future migrations rely
      // on.
      std::lock_guard<std::mutex> lock(dst.mu);
      std::deque<PendingFrame> merged;
      std::merge(std::make_move_iterator(dst.queue.begin()),
                 std::make_move_iterator(dst.queue.end()),
                 std::make_move_iterator(requeue.begin()),
                 std::make_move_iterator(requeue.end()), std::back_inserter(merged),
                 [](const PendingFrame& a, const PendingFrame& b) {
                   return a.arrival_seq < b.arrival_seq;
                 });
      dst.queue.swap(merged);
    }
    dst.cv.notify_all();
  }
}

void ServingCluster::process_inline_locked(PendingFrame frame, int64_t now_ns,
                                           bool was_pending) {
  // The supervisor's own staged pipeline, no ProvidedCompute: the batch-1
  // path, bit-identical by construction.
  ClusterStats tally;
  const ClusterResult cr = serve(frame, BatchTag{now_ns}, nullptr, tally);
  ++chaos_stats_.fallback_frames;
  push_event_locked(ClusterEventKind::kFallback, now_ns, -1, frame.stream_id,
                    frame.arrival_seq);
  complete({cr}, tally, was_pending);
}

// --- completion -------------------------------------------------------------

ClusterResult ServingCluster::serve(const PendingFrame& frame, const BatchTag& tag,
                                    const ProvidedCompute* provided, ClusterStats& tally) {
  ClusterResult cr;
  cr.stream_id = frame.stream_id;
  cr.arrival_seq = frame.arrival_seq;
  cr.arrival_ns = frame.arrival_ns;
  cr.sealed_ns = tag.sealed_ns;
  cr.replica = tag.replica;
  cr.batch_seq = tag.seq;
  cr.batch_size = tag.size;
  const size_t s = static_cast<size_t>(frame.stream_id);
  {
    // Per-stream (not per-replica) serialization: a stream's frames may
    // migrate between replicas, and its supervisor must never run from two
    // threads at once.
    std::lock_guard<std::mutex> lock(stream_mu_[s]);
    cr.result = supervisors_[s]->process(frame.frame, provided);
    if (provided != nullptr && provided->reconstruction.has_value()) {
      ++(supervisors_[s]->last_recon_mispredicted() ? tally.recon_mispredicts
                                                    : tally.provided_recon);
    }
  }
  if (provided != nullptr) {
    if (provided->steering.has_value()) ++tally.provided_steer;
    if (provided->saliency_mask.has_value()) ++tally.provided_saliency;
  }
  return cr;
}

void ServingCluster::complete(const std::vector<ClusterResult>& served, const ClusterStats& tally,
                              bool held_credits) {
  {
    std::lock_guard<std::mutex> lock(results_mu_);
    for (const auto& row : kClusterCounters) row.merge_into(stats_, tally);
    if (config_.keep_results) results_.insert(results_.end(), served.begin(), served.end());
  }
  for (const ClusterResult& cr : served) retire(cr.stream_id, held_credits);
}

void ServingCluster::retire(int64_t stream_id, bool held_credit) {
  if (held_credit) {
    pending_per_stream_[static_cast<size_t>(stream_id)].fetch_sub(1, std::memory_order_acq_rel);
  }
  {
    std::lock_guard<std::mutex> lock(idle_mu_);
    outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  }
  idle_cv_.notify_all();
}

// --- batching ---------------------------------------------------------------

bool ServingCluster::should_seal(const Replica& r) const {
  if (r.queue.empty()) return false;
  // A crashed/hung replica seals nothing. stop() always overrides (the run
  // is ending; fidelity is moot), and so does a flush when no watchdog
  // exists to migrate the frames — liveness wins over fault fidelity. With
  // a watchdog, drain() quarantines + migrates first.
  if (!r.stopping && !(r.flush && watchdog_ == nullptr) && config_.replica_faults != nullptr &&
      config_.replica_faults->outage_active(r.index, clock_->now_ns())) {
    return false;
  }
  if (r.flush || r.stopping) return true;
  if (static_cast<int64_t>(r.queue.size()) >= config_.max_batch) return true;
  const int64_t deadline = r.queue.front().arrival_ns + config_.gather_window_ns;
  if (r.queue.back().arrival_ns > deadline) return true;  // a frame landed past the window
  return clock_->now_ns() > deadline;                     // the window expired in real time
}

std::vector<ServingCluster::PendingFrame> ServingCluster::seal_batch(Replica& r,
                                                                     SealReason& reason) {
  // The cut depends only on arrival order and timestamps: up to max_batch
  // frames whose arrival falls within the head's gather window. Whichever
  // trigger fired (max_batch, a beyond-window arrival, the clock passing the
  // deadline, or a flush), the same queue contents produce the same batch.
  std::vector<PendingFrame> batch;
  const int64_t head_deadline = r.queue.front().arrival_ns + config_.gather_window_ns;
  while (!r.queue.empty() && static_cast<int64_t>(batch.size()) < config_.max_batch &&
         r.queue.front().arrival_ns <= head_deadline) {
    batch.push_back(std::move(r.queue.front()));
    r.queue.pop_front();
  }
  // Reason classification checks the arrival-determined triggers before the
  // flush flag: a batch whose window had already expired counts as a window
  // seal even when a drain() raced in — so the seal-reason stats are as
  // deterministic as the composition under a FakeClock.
  if (static_cast<int64_t>(batch.size()) == config_.max_batch) {
    reason = SealReason::kMaxBatch;
  } else if (!r.queue.empty() && r.queue.front().arrival_ns > head_deadline) {
    reason = SealReason::kWindow;
  } else if (clock_->now_ns() > head_deadline) {
    reason = SealReason::kWindow;
  } else {
    reason = SealReason::kFlush;  // drain()/stop() sealed a still-open window
  }
  ++r.batches_sealed;
  return batch;
}

void ServingCluster::worker_loop(Replica& r) {
  for (;;) {
    std::vector<PendingFrame> batch;
    SealReason reason = SealReason::kFlush;
    int64_t sealed_ns = 0;
    int64_t batch_seq = 0;
    {
      std::unique_lock<std::mutex> lock(r.mu);
      for (;;) {
        r.last_heartbeat_ns.store(clock_->now_ns(), std::memory_order_release);
        const bool paused = paused_.load(std::memory_order_acquire);
        if (!paused && should_seal(r)) break;
        if (!paused && r.stopping && r.queue.empty()) return;
        if (!paused && !r.queue.empty()) {
          // A partial batch is pending: sleep until the head's window
          // deadline so window seals fire even with no further arrivals.
          // Under a FakeClock the deadline never approaches in real time;
          // the periodic re-check is harmless (drain()/stop() notify, and
          // the batch composition is arrival-determined either way).
          int64_t wait_ns =
              r.queue.front().arrival_ns + config_.gather_window_ns - clock_->now_ns();
          if (wait_ns < 100'000) wait_ns = 100'000;
          r.cv.wait_for(lock, std::chrono::nanoseconds(wait_ns));
        } else {
          r.cv.wait(lock);
        }
      }
      sealed_ns = clock_->now_ns();
      batch = seal_batch(r, reason);
      batch_seq = r.batches_sealed - 1;
    }
    process_batch(r, std::move(batch), reason, sealed_ns, batch_seq);
  }
}

void ServingCluster::process_batch(Replica& r, std::vector<PendingFrame> batch,
                                   SealReason reason, int64_t sealed_ns, int64_t batch_seq) {
  const size_t b = batch.size();
  ClusterStats tally;  // this batch's counters, merged into stats_ on completion
  tally.batches = 1;
  tally.batched_frames = static_cast<int64_t>(b);
  ++(reason == SealReason::kMaxBatch ? tally.max_batch_seals
     : reason == SealReason::kWindow ? tally.window_seals
                                     : tally.flush_seals);

  // A weight-corruption window withholds ALL batched compute for the batch:
  // the supervisors recompute every stage inline from the true (pristine)
  // shared weights, so the served bits stay identical — the fault costs
  // batching efficiency, never correctness. The canary path is what makes
  // the corruption *observable*.
  const bool withhold =
      config_.replica_faults != nullptr &&
      config_.replica_faults->active_of_kind(r.index, faults::ReplicaFaultKind::kWeightCorrupt,
                                             sealed_ns) != nullptr;

  // --- Plan: screen frames and batch what each one's supervisor plans -----
  // The prescreen is the validator half of each supervisor's frame screen:
  // a rejected frame goes to its supervisor's sensor path, so it is left out
  // of batched compute (the stage entries do not screen content). Every
  // supervisor takes the prescreen's verdict (ProvidedCompute::fault)
  // instead of checking the frame again, and runs the frozen check. Every
  // other frame gets exactly the stages its supervisor's plan() names, read
  // under the stream's lock: a migrated stream's supervisor may still be
  // serving an earlier frame on another replica.
  //
  // Batched compute is partitioned by PRECISION: a mixed batch (some streams
  // on float rungs, some demoted to q8) runs one float sub-batch and one q8
  // sub-batch per stage — never a mixed forward, because the supervisor only
  // trusts provided results whose precision matches the serving rung
  // (ProvidedCompute::quantized).
  // Batch indices per stage and precision ([0]=float, [1]=q8), in batch order.
  std::vector<ProvidedCompute> provided(b);
  std::array<std::vector<size_t>, 2> steer_at;
  std::array<std::vector<size_t>, 2> sal_at;
  std::array<std::vector<size_t>, 2> recon_at;
  for (size_t i = 0; i < b; ++i) {
    provided[i].fault = detector_.frame_validator().check(batch[i].frame);
    if (*provided[i].fault != core::FrameFault::kNone) {
      ++tally.prescreen_rejects;
      continue;
    }
    FramePlan plan;
    {
      const size_t s = static_cast<size_t>(batch[i].stream_id);
      std::lock_guard<std::mutex> lock(stream_mu_[s]);
      plan = supervisors_[s]->plan();
    }
    provided[i].quantized = plan.q8;
    if (withhold) continue;
    recon_at[plan.q8 ? 1 : 0].push_back(i);
    if (plan.steer) steer_at[plan.steer_q8 ? 1 : 0].push_back(i);
    if (plan.saliency) sal_at[plan.mask_q8 ? 1 : 0].push_back(i);
  }

  // --- Batched compute: steer, saliency, reconstruct ----------------------
  // Any batched entry that throws simply provides nothing: each supervisor's
  // own stage recomputes (or registers the identical failure) in-line.
  //
  // Per precision, one stacked steering forward serves both stages: it runs
  // over every frame that needs an angle or a mask at that precision, and
  // the masks come from its conv stages whenever the detector's saliency
  // reads this model's forward (VBP on the detector's own steering model).
  // Otherwise the masks run their own batched forward.
  const auto frames_of = [&](const std::vector<size_t>& at) {
    std::vector<const Image*> frames;
    frames.reserve(at.size());
    for (const size_t i : at) frames.push_back(&batch[i].frame);
    return frames;
  };
  for (int p = 0; p < 2; ++p) {
    const std::vector<size_t>& steer = steer_at[static_cast<size_t>(p)];
    const std::vector<size_t>& sal = sal_at[static_cast<size_t>(p)];
    // The masks and reconstructions a precision provides are its top rung's.
    const core::DetectorVariant variant =
        p == 1 ? core::DetectorVariant::kPrimaryQ8 : core::DetectorVariant::kPrimary;
    const bool shared = !sal.empty() && detector_.mask_reads_steer_pass(p == 1, steering_model_);
    // The pass's frames in batch order (both fans are in batch order).
    std::vector<size_t> pass_at = steer;
    if (shared) {
      pass_at.clear();
      std::set_union(steer.begin(), steer.end(), sal.begin(), sal.end(),
                     std::back_inserter(pass_at));
    }
    const auto rows_of = [&](const std::vector<size_t>& fan) {
      std::vector<int64_t> rows;
      rows.reserve(fan.size());
      for (const size_t at : fan) {
        rows.push_back(std::lower_bound(pass_at.begin(), pass_at.end(), at) - pass_at.begin());
      }
      return rows;
    };
    std::optional<nn::StagedForward> pass;
    if (!pass_at.empty()) {
      try {
        const Tensor stacked = stack_nchw(frames_of(pass_at));
        pass = p == 1 ? detector_.quant_steering()->forward_stages(stacked)
                      : steering_model_->forward_stages(stacked);
      } catch (const std::exception&) {
      }
    }
    if (pass.has_value() && !steer.empty()) {
      try {
        const std::vector<double> angles =
            driving::steering_angles(pass->output, static_cast<int64_t>(pass_at.size()));
        const std::vector<int64_t> rows = rows_of(steer);
        for (size_t k = 0; k < steer.size(); ++k) {
          provided[steer[k]].steering = angles[static_cast<size_t>(rows[k])];
        }
      } catch (const std::exception&) {
      }
    }
    if (!sal.empty() && (!shared || pass.has_value())) {
      try {
        std::vector<Image> masks =
            shared ? detector_.variant_preprocess_batch(variant, frames_of(sal), *pass, rows_of(sal))
                   : detector_.variant_preprocess_batch(variant, frames_of(sal));
        for (size_t k = 0; k < sal.size(); ++k) {
          provided[sal[k]].saliency_mask = std::move(masks[k]);
        }
      } catch (const std::exception&) {
      }
    }
    // Planned autoencoder input: the mask when the plan runs saliency, the
    // raw frame otherwise (the supervisor's raw rungs feed the frame through
    // unchanged).
    const std::vector<size_t>& recon = recon_at[static_cast<size_t>(p)];
    std::vector<const Image*> recon_in;
    for (const size_t at : recon) {
      const std::optional<Image>& mask = provided[at].saliency_mask;
      recon_in.push_back(mask.has_value() ? &*mask : &batch[at].frame);
    }
    if (recon_in.empty()) continue;
    try {
      std::vector<Image> recons = detector_.variant_reconstruct_batch(variant, recon_in);
      for (size_t k = 0; k < recon.size(); ++k) {
        provided[recon[k]].recon_input = *recon_in[k];
        provided[recon[k]].reconstruction = std::move(recons[k]);
      }
    } catch (const std::exception&) {
    }
  }

  // --- Policy: replay each frame through its own supervisor, in order -----
  const BatchTag tag{sealed_ns, r.index, batch_seq, static_cast<int64_t>(b)};
  std::vector<ClusterResult> served;
  served.reserve(b);
  for (size_t i = 0; i < b; ++i) {
    served.push_back(serve(batch[i], tag, &provided[i], tally));
    tally.max_gather_wait_ns = std::max(tally.max_gather_wait_ns, sealed_ns - batch[i].arrival_ns);
  }

  // A slow-replica fault taxes the whole batch. Under a real clock the
  // worker genuinely sleeps (later seals are late — the watchdog's symptom);
  // under a FakeClock it does not, because FakeClock::sleep_ns advances the
  // shared clock for everyone.
  if (config_.replica_faults != nullptr) {
    const int64_t penalty = config_.replica_faults->slow_penalty_ns(r.index, sealed_ns);
    if (penalty > 0) {
      tally.slow_batches = 1;
      if (sleep_on_slow_) clock_->sleep_ns(penalty);
    }
  }
  complete(served, tally, /*held_credits=*/true);
}

}  // namespace salnov::serving
