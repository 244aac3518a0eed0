#include "src/ts/shard.h"

#include <algorithm>
#include <chrono>

#include "src/common/str.h"
#include "src/fail/failpoint.h"
#include "src/fail/sites.h"

namespace histkanon {
namespace ts {

void BoundedEventQueue::Push(ShardEvent event) {
  AcquireSlot();
  PushReserved(std::move(event));
}

bool BoundedEventQueue::TryPush(ShardEvent event, int64_t timeout_ms) {
  if (!TryAcquireSlot(timeout_ms)) return false;
  PushReserved(std::move(event));
  return true;
}

void BoundedEventQueue::AcquireSlot() {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [this] { return HasSpace(); });
  ++reserved_;
}

bool BoundedEventQueue::TryAcquireSlot(int64_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (timeout_ms <= 0) {
    if (!HasSpace()) return false;
  } else if (!not_full_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                                 [this] { return HasSpace(); })) {
    return false;
  }
  ++reserved_;
  return true;
}

void BoundedEventQueue::CancelSlot() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reserved_ > 0) --reserved_;
  }
  // The slot this reservation held open is available again.
  not_full_.notify_one();
}

void BoundedEventQueue::PushReserved(ShardEvent event) {
  const bool ingest = event.kind <= ShardEvent::Kind::kSetUserRules;
  size_t queued = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (reserved_ > 0) --reserved_;
    items_.push_back(std::move(event));
    queued = items_.size();
  }
  if (!ingest || queued >= wake_batch_) not_empty_.notify_one();
}

ShardEvent BoundedEventQueue::Pop() {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [this] { return !items_.empty(); });
  ShardEvent event = std::move(items_.front());
  items_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return event;
}

size_t BoundedEventQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

Shard::Shard(size_t index, size_t queue_capacity,
             const TrustedServerOptions& server_options, SharedPhase phase,
             double queue_deadline_seconds)
    : index_(index),
      queue_(queue_capacity),
      server_(server_options),
      phase_(phase),
      queue_deadline_seconds_(queue_deadline_seconds),
      causal_(server_options.causal),
      trace_track_(server_options.trace_track) {
  if (server_options.registry != nullptr) {
    obs::Registry& registry = *server_options.registry;
    depth_gauge_ = registry.GetGauge(
        common::Format("ts_shard_%zu_queue_depth", index_));
    latency_ = registry.GetHistogram(
        common::Format("ts_shard_%zu_request_seconds", index_));
    deadline_shed_counter_ = registry.GetCounter(
        common::Format("ts_shard_%zu_deadline_sheds_total", index_));
  }
}

void Shard::Enqueue(ShardEvent event) {
  queue_.Push(std::move(event));
  UpdateDepthGauge();
}

bool Shard::TryEnqueue(ShardEvent event, int64_t timeout_ms) {
  const bool pushed = queue_.TryPush(std::move(event), timeout_ms);
  if (pushed) UpdateDepthGauge();
  return pushed;
}

void Shard::PushReserved(ShardEvent event) {
  queue_.PushReserved(std::move(event));
  UpdateDepthGauge();
}

void Shard::Start() {
  worker_ = std::thread([this] { WorkerLoop(); });
}

void Shard::Join() {
  if (worker_.joinable()) worker_.join();
}

void Shard::UpdateDepthGauge() {
  if (depth_gauge_ != nullptr) {
    depth_gauge_->Set(static_cast<double>(queue_.size()));
  }
}

void Shard::Serve(const ShardEvent& event) {
  HISTKANON_FAILPOINT_HIT(fail::kTsShardServeStall);
  const bool traced = causal_ != nullptr && event.trace.trace_id != 0;
  if (traced && event.enqueue_ns > 0) {
    // Retroactive: the wait started at submission, on the producer's
    // clock (MonotonicNanos is process-wide).  Parented to the front-end
    // admission span, like shard_serve below — the causal chain crosses
    // the queue as admission -> {queue_wait, shard_serve}.
    causal_->RecordSpan(event.trace, "queue_wait", trace_track_,
                        event.enqueue_ns,
                        obs::MonotonicNanos() - event.enqueue_ns, {});
  }
  if (queue_deadline_seconds_ > 0.0 && event.enqueue_ns > 0) {
    const double waited =
        static_cast<double>(obs::MonotonicNanos() - event.enqueue_ns) * 1e-9;
    if (waited > queue_deadline_seconds_) {
      ++deadline_sheds_;
      if (deadline_shed_counter_ != nullptr) deadline_shed_counter_->Increment();
      if (traced) {
        causal_->RecordSpan(event.trace, "shard_shed", trace_track_,
                            obs::MonotonicNanos(), 0,
                            {{"shed_reason", "queue_deadline"}});
      }
      server_.RecordShedRequest(event.point);
      return;
    }
  }
  obs::ScopedTimer timer(latency_);
  if (traced) {
    obs::CausalSpan serve_span =
        causal_->StartSpan(event.trace, "shard_serve", trace_track_);
    // The server's pipeline spans ride the serve span: its trace id came
    // from the front-end, so the whole chain shares one id.
    server_.SetNextTraceContext(
        obs::TraceContext{event.trace.trace_id, serve_span.span_id()});
    server_.ProcessRequest(event.user, event.point, event.service, event.data);
    return;
  }
  server_.ProcessRequest(event.user, event.point, event.service, event.data);
}

void Shard::WorkerLoop() {
  std::vector<ShardEvent> pending;
  for (;;) {
    ShardEvent event = queue_.Pop();
    // Chaos hook: a delay armed here models a stalled worker holding the
    // queue full while the front-end keeps submitting.
    HISTKANON_FAILPOINT_HIT(fail::kTsShardWorkerStall);
    UpdateDepthGauge();
    switch (event.kind) {
      // The shard's own server has no journal and a default-HEALTHY
      // breaker (admission happens at the ConcurrentServer front-end), so
      // these entry points apply unconditionally.
      case ShardEvent::Kind::kLocationUpdate:
        server_.OnLocationUpdate(event.user, event.point);
        break;
      case ShardEvent::Kind::kRequest:
        // Ingest the exact point now (Section 5.3: every request is also
        // a location update); the pipeline's own append after the barrier
        // then no-ops, keeping the serve phase write-free.
        server_.OnLocationUpdate(event.user, event.point);
        pending.push_back(std::move(event));
        break;
      case ShardEvent::Kind::kRegisterUser:
        (void)server_.RegisterUser(event.user, event.policy).ok();
        break;
      case ShardEvent::Kind::kRegisterLbqid:
        if (event.lbqid != nullptr) {
          (void)server_.RegisterLbqid(event.user, *event.lbqid).ok();
        }
        break;
      case ShardEvent::Kind::kSetUserRules:
        if (event.rules != nullptr) {
          (void)server_.SetUserRules(event.user, *event.rules).ok();
        }
        break;
      case ShardEvent::Kind::kEpochEnd: {
        // Publish how many requests this shard buffered, then close the
        // write phase: after the barrier every shard's ingest is visible
        // and nobody writes shared state until serve_done.
        (*phase_.pending_counts)[index_] = pending.size();
        phase_.ingest_done->arrive_and_wait();
        // Serve-phase prewarm (DESIGN.md §13): the epoch is frozen behind
        // the barrier (every shard's ingest visible, nobody writes until
        // serve_done), so the generalizer's shared nearest-users entries
        // computed here stay valid for the whole phase.  Cell order makes
        // co-located requests adjacent so they share one index query;
        // serving below still follows the deterministic schedule.
        {
          std::vector<size_t> warm_order(pending.size());
          for (size_t i = 0; i < warm_order.size(); ++i) warm_order[i] = i;
          std::sort(warm_order.begin(), warm_order.end(),
                    [&](size_t a, size_t b) {
                      const uint64_t cell_a =
                          server_.index().CellIdOf(pending[a].point);
                      const uint64_t cell_b =
                          server_.index().CellIdOf(pending[b].point);
                      if (cell_a != cell_b) return cell_a < cell_b;
                      return a < b;
                    });
          for (const size_t i : warm_order) {
            server_.PrewarmRequest(pending[i].user, pending[i].point,
                                   pending[i].service);
          }
        }
        if (phase_.lockstep) {
          // Deterministic schedule: all shards serve their i-th request,
          // then meet; rounds = the max pending count across shards.
          const size_t rounds = *std::max_element(
              phase_.pending_counts->begin(), phase_.pending_counts->end());
          for (size_t round = 0; round < rounds; ++round) {
            if (round < pending.size()) Serve(pending[round]);
            phase_.step->arrive_and_wait();
          }
        } else {
          for (const ShardEvent& request : pending) Serve(request);
        }
        pending.clear();
        phase_.serve_done->arrive_and_wait();
        break;
      }
      case ShardEvent::Kind::kCheckpoint: {
        // Serialize this shard's server (only this worker touches it) and
        // hand the blob to the blocked producer.
        if (event.checkpoint != nullptr) {
          common::Result<std::string> blob = server_.Checkpoint();
          std::lock_guard<std::mutex> lock(event.checkpoint->mu);
          if (blob.ok()) {
            event.checkpoint->blobs[index_] = std::move(*blob);
          } else {
            event.checkpoint->errors[index_] = blob.status().ToString();
          }
          if (--event.checkpoint->remaining == 0) {
            event.checkpoint->cv.notify_all();
          }
        }
        break;
      }
      case ShardEvent::Kind::kSync: {
        // Bare rendezvous: this worker has drained everything enqueued
        // before the sync (markers come from the single producer, in
        // order), so the ack publishes its state — including the epoch's
        // outcome log — to the blocked producer via the collector mutex.
        if (event.checkpoint != nullptr) {
          std::lock_guard<std::mutex> lock(event.checkpoint->mu);
          if (--event.checkpoint->remaining == 0) {
            event.checkpoint->cv.notify_all();
          }
        }
        break;
      }
      case ShardEvent::Kind::kShutdown:
        return;
    }
  }
}

}  // namespace ts
}  // namespace histkanon
