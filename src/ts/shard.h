// One shard of the concurrent Trusted Server: a worker thread owning the
// TrustedServer instance for its slice of the user space, fed through a
// bounded MPSC event queue.
//
// Epoch protocol (the determinism contract, DESIGN.md §10): events arrive
// tagged to an epoch, terminated by an kEpochEnd marker fanned out to
// every shard.  Each worker first INGESTS its epoch events — location
// updates, the exact points of requests (a request is itself a location
// update, paper Section 5.3), and user registrations — mutating only its
// own db/index/monitor state.  All workers then meet at a barrier; after
// it, every shard's writes for the epoch are visible and no shard writes
// again until the next epoch.  Each worker then SERVES its buffered
// requests read-only against the global (cross-shard) views, and a second
// barrier closes the epoch.  Because the serve phase re-appends an
// already-ingested point, the db/index self-writes always no-op, keeping
// the phase free of shared-state mutation (ThreadSanitizer-verifiable).
//
// Lockstep mode replaces the free-running serve phase with a
// barrier-stepped schedule: all shards serve their i-th pending request,
// then meet at a barrier, for max-pending rounds.  This pins a single
// deterministic interleaving for the stress harness.

#ifndef HISTKANON_SRC_TS_SHARD_H_
#define HISTKANON_SRC_TS_SHARD_H_

#include <algorithm>
#include <barrier>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/lbqid/lbqid.h"
#include "src/ts/trusted_server.h"

namespace histkanon {
namespace ts {

/// \brief Rendezvous for a checkpoint fanned out to every shard: each
/// worker serializes its own server and deposits the blob (or error) at
/// its shard index; the producer blocks until `remaining` hits zero.
struct CheckpointCollector {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = 0;
  std::vector<std::string> blobs;
  /// Per-shard error message; empty = the shard checkpointed fine.
  std::vector<std::string> errors;
};

/// \brief One queued event for a shard worker.
struct ShardEvent {
  /// The ingest kinds come first: BoundedEventQueue batches their wakeups.
  enum class Kind {
    kLocationUpdate,  ///< Ingest: db/index append.
    kRequest,         ///< Ingest exact point now, serve after the barrier.
    kRegisterUser,    ///< Ingest: apply registration (duplicate = no-op).
    kRegisterLbqid,   ///< Ingest: attach LBQID (unknown user = no-op).
    kSetUserRules,    ///< Ingest: attach rule set (unknown user = no-op).
    kEpochEnd,        ///< Epoch marker: barrier, serve, barrier.
    kCheckpoint,      ///< Serialize own server into the shared collector.
    kSync,            ///< Ack the collector without serializing: the
                      ///< producer-blocking rendezvous of DrainWindow().
    kShutdown,        ///< Worker exits (preceded by a final kEpochEnd).
  };

  Kind kind = Kind::kLocationUpdate;
  mod::UserId user = mod::kInvalidUser;
  geo::STPoint point;
  mod::ServiceId service = 0;
  std::string data;
  PrivacyPolicy policy;
  std::shared_ptr<const lbqid::Lbqid> lbqid;
  std::shared_ptr<const PolicyRuleSet> rules;
  std::shared_ptr<CheckpointCollector> checkpoint;
  /// obs::MonotonicNanos() at submission; 0 when neither the queue-wait
  /// deadline nor causal tracing is on (no clock read on the submit path).
  int64_t enqueue_ns = 0;
  /// Causal coordinates assigned at front-end admission (trace_id 0 = the
  /// event is untraced).  parent_span is the front-end admission span; the
  /// worker parents its queue_wait/shard_serve spans to it.
  obs::TraceContext trace;
};

/// \brief Bounded multi-producer single-consumer event queue
/// (mutex + condvar; Push blocks while full, Pop while empty).
///
/// The slot-reservation protocol exists for the write-ahead ordering of
/// the ConcurrentServer front-end: under a shed/fail full-queue policy
/// the SHED decision must come before the journal append (a journaled
/// event that is then shed would replay as applied), so the producer
/// first reserves capacity (TryAcquireSlot — the only step that can
/// fail), then journals, then fills the slot with PushReserved (which
/// never blocks) or releases it with CancelSlot if journaling failed.
///
/// Ingest events wake a sleeping consumer only once a batch of them has
/// queued up (a quarter of the capacity, at most 64); the kinds a
/// producer waits on — epoch markers, syncs, checkpoints, shutdown — wake
/// it at once, and it then drains everything queued before them.  A
/// window of a few requests thus costs one consumer wakeup, not one per
/// update, and a full queue always has an awake consumer.
class BoundedEventQueue {
 public:
  explicit BoundedEventQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        wake_batch_(std::clamp<size_t>(capacity_ / 4, 1, 64)) {}

  /// AcquireSlot + PushReserved (the classic blocking enqueue).
  void Push(ShardEvent event);

  /// Non-blocking / bounded-wait enqueue: false (event dropped) when no
  /// space freed up within `timeout_ms` (0 = immediate).
  bool TryPush(ShardEvent event, int64_t timeout_ms = 0);

  /// Blocks until capacity is available, then reserves one slot.
  void AcquireSlot();
  /// Reserves one slot, waiting at most `timeout_ms` (0 = immediate).
  bool TryAcquireSlot(int64_t timeout_ms = 0);
  /// Releases a reserved slot without pushing.
  void CancelSlot();
  /// Fills a previously reserved slot; never blocks.
  void PushReserved(ShardEvent event);

  ShardEvent Pop();
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  /// Occupancy counts queued items AND reserved-but-unfilled slots.
  bool HasSpace() const { return items_.size() + reserved_ < capacity_; }

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<ShardEvent> items_;
  size_t reserved_ = 0;
  const size_t capacity_;
  const size_t wake_batch_;
};

/// \brief One worker shard.  Owned and orchestrated by ConcurrentServer.
class Shard {
 public:
  /// Synchronization shared across all shards of one ConcurrentServer.
  struct SharedPhase {
    std::barrier<>* ingest_done = nullptr;  ///< End of the write phase.
    std::barrier<>* step = nullptr;         ///< Lockstep per-round barrier.
    std::barrier<>* serve_done = nullptr;   ///< End of the read phase.
    /// Per-shard buffered-request counts, published before ingest_done and
    /// read by every worker after it (the lockstep round count).
    std::vector<size_t>* pending_counts = nullptr;
    bool lockstep = false;
  };

  /// `queue_deadline_seconds` > 0: a request that waited in the queue
  /// longer than the budget is shed at serve time (kRejected outcome)
  /// instead of running the pipeline.  Trades the determinism contract
  /// for bounded staleness; default off.
  Shard(size_t index, size_t queue_capacity,
        const TrustedServerOptions& server_options, SharedPhase phase,
        double queue_deadline_seconds = 0.0);

  TrustedServer& server() { return server_; }
  const TrustedServer& server() const { return server_; }
  size_t index() const { return index_; }

  /// Enqueues an event (blocks while the queue is full).  Multi-producer
  /// safe; event order from a single producer is preserved.
  void Enqueue(ShardEvent event);

  /// Bounded-wait enqueue: false (event dropped) when the queue stayed
  /// full for `timeout_ms` (0 = immediate).  The non-wedging alternative
  /// to Enqueue when this shard's worker may be stalled.
  bool TryEnqueue(ShardEvent event, int64_t timeout_ms = 0);

  // Slot-reservation protocol (see BoundedEventQueue): reserve, then
  // journal, then PushReserved / CancelSlot.
  void AcquireSlot() { queue_.AcquireSlot(); }
  bool TryAcquireSlot(int64_t timeout_ms = 0) {
    return queue_.TryAcquireSlot(timeout_ms);
  }
  void CancelSlot() { queue_.CancelSlot(); }
  void PushReserved(ShardEvent event);

  void Start();
  void Join();

  size_t queue_depth() const { return queue_.size(); }
  /// Requests shed by the queue-wait deadline (worker thread's count;
  /// stable after Join).
  uint64_t deadline_sheds() const { return deadline_sheds_; }

 private:
  void WorkerLoop();
  void Serve(const ShardEvent& event);
  void UpdateDepthGauge();

  const size_t index_;
  BoundedEventQueue queue_;
  TrustedServer server_;
  SharedPhase phase_;
  const double queue_deadline_seconds_;
  /// Mirror of the server options' causal tracer + track name (the tracer
  /// is internally synchronized, so the worker thread records directly).
  obs::CausalTracer* causal_ = nullptr;
  std::string trace_track_;
  uint64_t deadline_sheds_ = 0;  // worker-thread only
  /// Per-shard observability (nullptr without a registry).
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Histogram* latency_ = nullptr;
  obs::Counter* deadline_shed_counter_ = nullptr;
  std::thread worker_;
};

}  // namespace ts
}  // namespace histkanon

#endif  // HISTKANON_SRC_TS_SHARD_H_
