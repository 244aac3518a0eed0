// Crash safety for the Trusted Server: a write-ahead journal of every
// ingested event, versioned whole-state snapshots, and replay-based
// recovery.
//
// The durability model (DESIGN.md §11):
//
//  - every entry point (service/user/LBQID registration, rule attachment,
//    location update, request) is journaled BEFORE it is applied; the
//    pipeline is deterministic given the journaled stream and the
//    checkpointed RNG states, so replaying the journal against the last
//    intact snapshot reproduces the crashed server's state — including
//    pseudonyms and message ids — byte for byte;
//  - snapshots are embedded in the journal as records of their own type,
//    so a snapshot torn by the crash is discarded by the same CRC/length
//    scan that discards torn events, and recovery falls back to the
//    previous intact snapshot (or genesis) plus a longer replay;
//  - the framing (src/dur/framing.h) guarantees torn tails and corrupted
//    records are detected and cleanly discarded, never replayed.
//
// The recovery invariant, proved by tests/recovery_differential_test.cc:
// for a crash after ANY journal byte, RecoverTrustedServer + replay of the
// not-yet-journaled suffix yields SP-visible output (dispositions, boxes,
// stats, Theorem-1 audits, pseudonyms, msgids) identical to a run that
// never crashed.

#ifndef HISTKANON_SRC_TS_DURABILITY_H_
#define HISTKANON_SRC_TS_DURABILITY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/dur/append_buffer.h"
#include "src/dur/sink.h"
#include "src/tgran/granularity.h"
#include "src/ts/concurrent_server.h"
#include "src/ts/trusted_server.h"
#include "src/ts/workload.h"

namespace histkanon {
namespace ts {

/// Journal record types (first payload byte of every framed record).
inline constexpr uint8_t kJournalEventRecord = 0x01;
inline constexpr uint8_t kJournalSnapshotRecord = 0x02;
/// Trace-id annotation: carries the allocator position (next trace id) so
/// a recovered server resumes the exact id sequence.  Annotations are
/// observability metadata — replay ignores them for state, and a server
/// running without a tracer never writes them (journal bytes stay
/// bit-identical to a tracing-off run).
inline constexpr uint8_t kJournalAnnotationRecord = 0x03;

/// \brief One journaled Trusted-Server input event.
struct JournalEvent {
  enum class Kind : uint8_t {
    kRegisterService = 1,
    kRegisterUser = 2,
    kRegisterLbqid = 3,
    kSetRules = 4,
    kUpdate = 5,
    kRequest = 6,
    /// Epoch boundary of a ConcurrentServer stream (no-op on a serial
    /// replay, EndEpoch on a concurrent one).
    kEpochEnd = 7,
    /// A whole ProcessBatch window, admitted as ONE composite event so
    /// replay reproduces the batch semantics (up-front ingest + prewarm)
    /// rather than per-request semantics.
    kBatch = 8,
  };

  Kind kind = Kind::kUpdate;
  mod::UserId user = mod::kInvalidUser;
  geo::STPoint point;
  mod::ServiceId service_id = 0;
  std::string data;
  /// kRegisterService payload.
  anon::ServiceProfile service;
  /// kRegisterUser payload.
  PrivacyPolicy policy;
  /// kRegisterLbqid payload.
  std::shared_ptr<const lbqid::Lbqid> lbqid;
  /// kSetRules payload.
  std::shared_ptr<const PolicyRuleSet> rules;
  /// kBatch payload.
  std::shared_ptr<const std::vector<BatchRequest>> batch;
};

/// Serializes an event into a record payload (kJournalEventRecord-tagged).
std::string EncodeJournalEvent(const JournalEvent& event);

/// Decodes an event payload.  Granularity names inside LBQID recurrences
/// are resolved through `registry`; unknown names fail (custom
/// granularities must be re-registered before recovery).
common::Result<JournalEvent> DecodeJournalEvent(
    std::string_view payload, const tgran::GranularityRegistry& registry);

/// \brief An in-memory write-ahead journal (the byte string is the
/// durable artifact: persist it with WriteToFile or your own I/O, append
/// granularity = one framed record), optionally teed record-by-record to
/// a dur::JournalSink.  The bytes live in a dur::AppendBuffer, so a
/// growing journal never stalls an append with a whole-journal copy.
///
/// Appends are all-or-nothing from the caller's view: on a non-OK return
/// (injected fault at dur.journal.*, or a sink I/O error) neither the
/// in-memory bytes nor event_count() change — the event was NOT journaled
/// and a fail-closed server must suppress it.  A sink may still hold a
/// torn physical prefix; the recovery scan discards it by CRC.
class TsJournal {
 public:
  TsJournal();

  /// Appends one event record.
  common::Status AppendEvent(const JournalEvent& event);

  /// Appends a snapshot record embedding `snapshot` (a TrustedServer::
  /// Checkpoint() or ConcurrentServer::Checkpoint() blob) tagged with the
  /// number of events journaled so far — recovery replays only the events
  /// after the last intact snapshot.
  common::Status AppendSnapshot(std::string_view snapshot);

  /// Appends a trace-id annotation record (kJournalAnnotationRecord).
  /// Does not count as an event.  Only written when a tracer is attached;
  /// failures are ignorable (the annotation is an optimization — replay of
  /// the admitted events reconstructs the same counter).
  common::Status AppendAnnotation(uint64_t next_trace_id);

  /// Tees every subsequent append to `sink` (not owned, must outlive the
  /// journal; nullptr detaches).  Bytes already journaled are written to
  /// the sink immediately, so sink contents == bytes() at every OK
  /// return.
  common::Status AttachSink(dur::JournalSink* sink);

  /// Syncs the attached sink (no-op without one).
  common::Status Sync();

  /// The journal bytes (magic + records), crash-consistent at any record
  /// boundary.  Valid until the next append or compaction.
  std::string_view bytes() const { return bytes_.view(); }
  size_t size() const { return bytes_.size(); }

  /// Events appended so far (snapshot records do not count).
  size_t event_count() const { return event_count_; }

  common::Status WriteToFile(const std::string& path) const;

  // -- Snapshot-anchored compaction (DESIGN.md §16).

  /// Opens (creating or truncating) `path` as this journal's OWNED file
  /// sink, with AttachSink catch-up semantics (bytes journaled so far are
  /// written through immediately).  Owning the sink is what lets
  /// Compact() atomically swap the underlying file.
  common::Status OpenFileSink(std::string path);

  /// Drops the journal prefix the last intact snapshot record subsumes:
  /// the journal becomes magic + that snapshot record + everything after
  /// it.  Recovery is unchanged — the snapshot record carries the
  /// absolute event count, so replay resumes from the same position.
  ///
  /// With an owned file sink the swap is crash-safe: the compacted image
  /// is written to a tmp file, synced, and renamed over the journal — a
  /// crash at any byte leaves either the full or the compacted file, both
  /// valid.  If the post-rename reopen fails, the journal goes
  /// fail-closed (sink_broken(): every later append errors) rather than
  /// silently diverging from the file.  No-op without a snapshot;
  /// FailedPrecondition when a non-owned sink is attached (its contents
  /// could not be rewritten).
  common::Status Compact();

  /// Compacts automatically after every successful AppendSnapshot.
  void SetAutoCompact(bool on) { auto_compact_ = on; }

  /// Compactions completed.
  uint64_t compactions() const { return compactions_; }
  /// Byte offset of the last snapshot record in bytes() (0 = none yet).
  size_t last_snapshot_offset() const { return last_snapshot_offset_; }
  /// True after a compaction renamed the file but could not reopen it;
  /// the journal refuses further appends (fail-closed).
  bool sink_broken() const { return sink_broken_; }

 private:
  /// Appends the bytes_ suffix starting at `old_size` to the sink; on
  /// failure rolls bytes_ back to old_size (the record never happened).
  common::Status CommitAppend(size_t old_size);

  dur::AppendBuffer bytes_;
  size_t event_count_ = 0;
  dur::JournalSink* sink_ = nullptr;
  /// Compaction state: the owned sink (when OpenFileSink wired one), its
  /// path, and the offset of the last durable snapshot record.
  std::unique_ptr<dur::FileSink> owned_sink_;
  std::string path_;
  size_t last_snapshot_offset_ = 0;
  bool auto_compact_ = false;
  bool sink_broken_ = false;
  uint64_t compactions_ = 0;
};

/// \brief What a scan recovered from (possibly damaged) journal bytes.
struct RecoveredJournal {
  /// The last intact snapshot blob (empty: recover from genesis).
  std::string snapshot;
  /// Events journaled before that snapshot (skipped by replay).
  size_t events_before_snapshot = 0;
  /// The intact events AFTER the snapshot, in journal order.
  std::vector<JournalEvent> events;
  /// events_before_snapshot + events.size(): the journal position a
  /// recovered server resumes from.
  size_t total_events = 0;
  /// Bytes of the intact prefix (truncate the file here to clean it).
  size_t valid_bytes = 0;
  /// False when a torn or corrupted tail was discarded.
  bool clean = true;
  std::string tail_error;
  /// Last intact trace-id annotation, when one was journaled (a run with a
  /// tracer attached).  Recovery seeds the trace-id allocator from it and
  /// replay of the event suffix advances it to the crash position.
  bool has_trace_annotation = false;
  uint64_t next_trace_id = 0;
  /// Events journaled before the last intact annotation (replayed events
  /// past this point each advance the recovered allocator).
  size_t events_before_annotation = 0;
};

/// Scans journal bytes, decoding events and locating the last intact
/// snapshot.  Damage (torn tail, CRC mismatch, undecodable record) stops
/// the scan: everything after the last intact record is discarded and
/// reported via clean/tail_error.  Fails only when the bytes are not a
/// journal at all.
common::Result<RecoveredJournal> ScanJournal(
    std::string_view bytes, const tgran::GranularityRegistry& registry);

/// Every intact event in the journal, ignoring snapshots (the full input
/// stream — the kill-point harness uses it to continue a recovered run).
common::Result<std::vector<JournalEvent>> DecodeAllEvents(
    std::string_view bytes, const tgran::GranularityRegistry& registry);

/// Applies one event to a serial server by invoking the corresponding
/// entry point (kEpochEnd is a no-op: the serial replay order already is
/// the epoch-normalized order).  Failing registrations are ignored — the
/// original call failed identically.
void ApplyJournalEvent(TrustedServer* server, const JournalEvent& event);

/// Applies one event to a concurrent server (Submit*/EndEpoch;
/// kRegisterService applies synchronously and must precede streaming,
/// which journal order guarantees).
void ApplyConcurrentJournalEvent(ConcurrentServer* server,
                                 const JournalEvent& event);

/// The exact call sequence ReplayEpochsSerial makes, as journal events:
/// service registrations, then per epoch the ingest pass (every event;
/// requests contribute their exact point as a kUpdate) followed by the
/// serve pass (kRequest).  Feeding these through ApplyJournalEvent
/// reproduces ReplayEpochsSerial(workload, server) exactly.
std::vector<JournalEvent> FlattenSerialWorkload(
    const EpochedWorkload& workload);

/// The ReplayEpochsConcurrent submission stream as journal events (every
/// epoch's events in submission order, each epoch closed by kEpochEnd).
std::vector<JournalEvent> FlattenConcurrentWorkload(
    const EpochedWorkload& workload);

/// \brief A server rebuilt from a journal.
struct RecoveredServer {
  std::unique_ptr<TrustedServer> server;
  /// Journal position recovered to: the caller resumes the input stream
  /// from this event index.
  size_t events_applied = 0;
  bool clean_tail = true;
  std::string tail_error;
};

/// Rebuilds a serial server from journal bytes: constructs it with
/// `options`, restores the last intact snapshot, replays the intact event
/// suffix.  The recovered server has NO journal attached; attach a fresh
/// one before resuming ingestion.  `options` must match the crashed
/// server's (the snapshot fingerprint is verified).
common::Result<RecoveredServer> RecoverTrustedServer(
    std::string_view journal_bytes, const TrustedServerOptions& options,
    const tgran::GranularityRegistry& registry);

/// \brief A concurrent server rebuilt from a journal.
struct RecoveredConcurrentServer {
  std::unique_ptr<ConcurrentServer> server;
  size_t events_applied = 0;
  bool clean_tail = true;
  std::string tail_error;
};

/// Rebuilds a sharded server from journal bytes: constructs it with
/// `options` (same shard count as the crashed server), restores the last
/// intact composite snapshot into the shards, and re-submits the intact
/// event suffix.  The caller resumes the submission stream from
/// events_applied and must still EndEpoch/Finish as usual.
common::Result<RecoveredConcurrentServer> RecoverConcurrentServer(
    std::string_view journal_bytes, ConcurrentServerOptions options,
    const tgran::GranularityRegistry& registry);

}  // namespace ts
}  // namespace histkanon

#endif  // HISTKANON_SRC_TS_DURABILITY_H_
