// The crash-recovery proof (DESIGN.md §11): simulate a crash after EVERY
// journal record (plus sampled mid-record torn tails and a corrupted
// byte), recover, replay the not-yet-journaled suffix, and require the
// recovered server's SP-visible output — dispositions, generalized boxes,
// stats, Theorem-1 audits, pseudonyms, message ids — to be byte-identical
// to a run that never crashed.  The whole-state comparison is the
// Checkpoint() blob itself: it serializes every piece of server state, so
// blob equality subsumes every per-field check.
//
// The ConcurrentRecovery suite proves the same invariant for the sharded
// front-end journal and the composite snapshot.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/dur/framing.h"
#include "src/tgran/granularity.h"
#include "src/ts/concurrent_server.h"
#include "src/ts/durability.h"
#include "src/ts/workload.h"

namespace histkanon {
namespace ts {
namespace {

const tgran::GranularityRegistry& Registry() {
  static const tgran::GranularityRegistry* registry =
      new tgran::GranularityRegistry(tgran::GranularityRegistry::WithDefaults());
  return *registry;
}

// Compact per-request transcript for readable failure diffs (the real
// comparison below is the full snapshot blob).
template <typename Outcomes>
std::string DispositionString(const Outcomes& outcomes) {
  std::string out;
  out.reserve(outcomes.size() * 2);
  for (const ProcessOutcome& o : outcomes) {
    out.push_back(static_cast<char>('0' + static_cast<int>(o.disposition)));
    out.push_back(o.forwarded ? 'F' : '.');
  }
  return out;
}

void ExpectIdenticalServers(const TrustedServer& golden,
                            const TrustedServer& recovered) {
  EXPECT_EQ(DispositionString(golden.outcomes()),
            DispositionString(recovered.outcomes()));
  EXPECT_EQ(golden.stats().requests, recovered.stats().requests);
  const auto a = golden.Checkpoint();
  const auto b = recovered.Checkpoint();
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  if (*a != *b) {
    size_t diff = 0;
    while (diff < a->size() && diff < b->size() && (*a)[diff] == (*b)[diff]) {
      ++diff;
    }
    ADD_FAILURE() << "recovered state diverges from the uninterrupted run "
                  << "at snapshot byte " << diff << " (golden "
                  << a->size() << " bytes, recovered " << b->size() << ")";
  }
}

// Crashes the golden run after every record boundary (and, for every
// fifth record, mid-record: header-torn and body-torn), recovers from the
// surviving prefix, replays the suffix of the input stream, and demands
// whole-state equality.  checkpoint_every > 0 interleaves snapshot
// records so cuts also land on (and inside) snapshots.
void RunSerialKillPointSweep(const EpochedWorkload& workload,
                             size_t checkpoint_every) {
  const std::vector<JournalEvent> events = FlattenSerialWorkload(workload);
  ASSERT_FALSE(events.empty());

  TsJournal journal;
  TrustedServer golden;
  golden.AttachJournal(&journal);
  for (size_t i = 0; i < events.size(); ++i) {
    ApplyJournalEvent(&golden, events[i]);
    if (checkpoint_every != 0 && (i + 1) % checkpoint_every == 0) {
      ASSERT_TRUE(golden.WriteCheckpoint().ok());
    }
  }
  ASSERT_EQ(journal.event_count(), events.size());
  ASSERT_GT(golden.stats().requests, 0u);

  const std::string bytes(journal.bytes());
  const std::vector<size_t> boundaries = dur::RecordBoundaries(bytes);
  ASSERT_EQ(boundaries.back(), bytes.size());

  size_t crash_points = 0;
  for (size_t b = 0; b < boundaries.size(); ++b) {
    std::vector<size_t> cuts;
    cuts.push_back(boundaries[b]);
    if (b == 0) cuts.insert(cuts.begin(), {0, 3});  // crash before/in magic
    if (b + 1 < boundaries.size() && b % 5 == 0) {
      // Tear the NEXT record: mid-header and mid-body.
      cuts.push_back(boundaries[b] + 1);
      cuts.push_back((boundaries[b] + boundaries[b + 1]) / 2);
    }
    for (const size_t cut : cuts) {
      SCOPED_TRACE("crash after byte " + std::to_string(cut) + " of " +
                   std::to_string(bytes.size()));
      const auto recovered = RecoverTrustedServer(
          std::string_view(bytes).substr(0, cut), TrustedServerOptions(),
          Registry());
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      // A cut on a record boundary is clean (and an empty file is
      // trivially clean); inside a record it is torn and must recover to
      // the previous boundary — never replay damage.
      EXPECT_EQ(recovered->clean_tail, cut == boundaries[b] || cut == 0);
      ASSERT_LE(recovered->events_applied, events.size());
      for (size_t i = recovered->events_applied; i < events.size(); ++i) {
        ApplyJournalEvent(recovered->server.get(), events[i]);
      }
      ExpectIdenticalServers(golden, *recovered->server);
      ++crash_points;
    }
  }
  // Every record boundary was a crash point (events + snapshots + magic).
  EXPECT_GT(crash_points, events.size());
}

SyntheticWorkloadOptions SmallSynthetic() {
  SyntheticWorkloadOptions options;
  options.num_users = 10;
  options.num_epochs = 3;
  options.requests_per_epoch = 12;
  options.lbqid_every = 2;
  return options;
}

TEST(RecoveryDifferential, UniformEveryCrashPoint) {
  RunSerialKillPointSweep(MakeUniformWorkload(SmallSynthetic()),
                          /*checkpoint_every=*/0);
}

TEST(RecoveryDifferential, UniformEveryCrashPointWithCheckpoints) {
  RunSerialKillPointSweep(MakeUniformWorkload(SmallSynthetic()),
                          /*checkpoint_every=*/25);
}

TEST(RecoveryDifferential, HotspotEveryCrashPoint) {
  RunSerialKillPointSweep(MakeHotspotWorkload(SmallSynthetic()),
                          /*checkpoint_every=*/0);
}

TEST(RecoveryDifferential, CommuterEveryCrashPointWithCheckpoints) {
  CommuterWorkloadOptions options;
  options.num_commuters = 3;
  options.num_wanderers = 5;
  options.duration = 1200;
  options.epoch_seconds = 400;
  RunSerialKillPointSweep(MakeCommuterWorkload(options),
                          /*checkpoint_every=*/25);
}

TEST(RecoveryDifferential, CorruptedByteIsNeverReplayed) {
  const EpochedWorkload workload = MakeUniformWorkload(SmallSynthetic());
  const std::vector<JournalEvent> events = FlattenSerialWorkload(workload);

  TsJournal journal;
  TrustedServer golden;
  golden.AttachJournal(&journal);
  for (const JournalEvent& event : events) ApplyJournalEvent(&golden, event);

  std::string bytes(journal.bytes());
  const std::vector<size_t> boundaries = dur::RecordBoundaries(bytes);
  ASSERT_GT(boundaries.size(), 4u);
  // Bit-rot a payload byte in a mid-journal record (past its 8-byte
  // header), then recover from the whole damaged buffer.
  const size_t mid = boundaries.size() / 2;
  bytes[boundaries[mid] + 8] ^= 0x40;

  const auto recovered =
      RecoverTrustedServer(bytes, TrustedServerOptions(), Registry());
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered->clean_tail);
  // Everything from the damaged record on was discarded, not replayed.
  EXPECT_EQ(recovered->events_applied, mid);
  for (size_t i = recovered->events_applied; i < events.size(); ++i) {
    ApplyJournalEvent(recovered->server.get(), events[i]);
  }
  ExpectIdenticalServers(golden, *recovered->server);
}

// ---------------------------------------------------------------------
// ConcurrentRecovery: the same invariant for the sharded server.  (Suite
// name deliberately matches the ThreadSanitizer CI filter.)

void ExpectSameOutcomes(const ConcurrentServer& golden,
                        const ConcurrentServer& recovered) {
  const auto& a = golden.outcomes();
  const auto& b = recovered.outcomes();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].disposition, b[i].disposition) << "request " << i;
    EXPECT_EQ(a[i].forwarded, b[i].forwarded) << "request " << i;
    EXPECT_EQ(a[i].hk_anonymity, b[i].hk_anonymity) << "request " << i;
    EXPECT_EQ(a[i].matched_lbqid, b[i].matched_lbqid) << "request " << i;
    EXPECT_EQ(a[i].lbqid_completed, b[i].lbqid_completed) << "request " << i;
    // Full equality, pseudonyms and msgids included: the composite
    // snapshot restores every shard's RNG and pseudonym table.
    EXPECT_EQ(a[i].forwarded_request.msgid, b[i].forwarded_request.msgid)
        << "request " << i;
    EXPECT_EQ(a[i].forwarded_request.pseudonym,
              b[i].forwarded_request.pseudonym)
        << "request " << i;
    EXPECT_EQ(a[i].forwarded_request.context, b[i].forwarded_request.context)
        << "request " << i;
    EXPECT_EQ(a[i].forwarded_request.data, b[i].forwarded_request.data)
        << "request " << i;
  }
}

void ExpectSameConcurrentState(const ConcurrentServer& golden,
                               const ConcurrentServer& recovered) {
  ExpectSameOutcomes(golden, recovered);
  const TsStats sa = golden.stats();
  const TsStats sb = recovered.stats();
  EXPECT_EQ(sa.requests, sb.requests);
  EXPECT_EQ(sa.forwarded_default, sb.forwarded_default);
  EXPECT_EQ(sa.forwarded_generalized, sb.forwarded_generalized);
  EXPECT_EQ(sa.suppressed_mixzone, sb.suppressed_mixzone);
  EXPECT_EQ(sa.unlink_attempts, sb.unlink_attempts);
  EXPECT_EQ(sa.unlink_successes, sb.unlink_successes);
  EXPECT_EQ(sa.at_risk_notifications, sb.at_risk_notifications);
  EXPECT_EQ(sa.lbqid_completions, sb.lbqid_completions);
  EXPECT_EQ(sa.generalized_area_sum, sb.generalized_area_sum);
  EXPECT_EQ(sa.generalized_window_sum, sb.generalized_window_sum);
  const auto audits_a = golden.AuditTraces();
  const auto audits_b = recovered.AuditTraces();
  ASSERT_EQ(audits_a.size(), audits_b.size());
  for (size_t i = 0; i < audits_a.size(); ++i) {
    EXPECT_EQ(audits_a[i].user, audits_b[i].user) << "audit " << i;
    EXPECT_EQ(audits_a[i].lbqid_index, audits_b[i].lbqid_index)
        << "audit " << i;
    EXPECT_EQ(audits_a[i].steps, audits_b[i].steps) << "audit " << i;
    EXPECT_EQ(audits_a[i].tainted, audits_b[i].tainted) << "audit " << i;
    EXPECT_EQ(audits_a[i].hka_satisfied, audits_b[i].hka_satisfied)
        << "audit " << i;
    EXPECT_EQ(audits_a[i].witnesses, audits_b[i].witnesses) << "audit " << i;
  }
}

ConcurrentServerOptions TwoShards(TsJournal* journal) {
  ConcurrentServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 64;
  options.journal = journal;
  return options;
}

TEST(ConcurrentRecovery, EveryCrashPointWithMidStreamCheckpoint) {
  SyntheticWorkloadOptions small;
  small.num_users = 8;
  small.num_epochs = 2;
  small.requests_per_epoch = 8;
  small.lbqid_every = 2;
  const EpochedWorkload workload = MakeUniformWorkload(small);
  const std::vector<JournalEvent> stream = FlattenConcurrentWorkload(workload);

  // Golden run: journal the submission stream, checkpoint after the first
  // epoch (the composite snapshot lands mid-journal).
  TsJournal journal;
  {
    ConcurrentServer golden_builder(TwoShards(&journal));
    bool checkpointed = false;
    for (const JournalEvent& event : stream) {
      ApplyConcurrentJournalEvent(&golden_builder, event);
      if (!checkpointed && event.kind == JournalEvent::Kind::kEpochEnd) {
        const auto blob = golden_builder.Checkpoint();
        ASSERT_TRUE(blob.ok()) << blob.status().ToString();
        checkpointed = true;
      }
    }
    golden_builder.Finish();
    ASSERT_TRUE(checkpointed);
  }

  // The journaled stream (checkpoint epoch-close + Finish markers
  // included) is the authoritative input; golden = full replay of it.
  const auto full_stream = DecodeAllEvents(journal.bytes(), Registry());
  ASSERT_TRUE(full_stream.ok());
  ConcurrentServer golden(TwoShards(nullptr));
  for (const JournalEvent& event : *full_stream) {
    ApplyConcurrentJournalEvent(&golden, event);
  }
  golden.Finish();
  ASSERT_GT(golden.outcomes().size(), 0u);

  const std::string bytes(journal.bytes());
  const std::vector<size_t> boundaries = dur::RecordBoundaries(bytes);
  for (size_t b = 0; b < boundaries.size(); ++b) {
    std::vector<size_t> cuts = {boundaries[b]};
    if (b + 1 < boundaries.size() && b % 4 == 0) {
      cuts.push_back((boundaries[b] + boundaries[b + 1]) / 2);  // torn
    }
    for (const size_t cut : cuts) {
      SCOPED_TRACE("crash after byte " + std::to_string(cut) + " of " +
                   std::to_string(bytes.size()));
      auto recovered = RecoverConcurrentServer(
          std::string_view(bytes).substr(0, cut), TwoShards(nullptr),
          Registry());
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      EXPECT_EQ(recovered->clean_tail, cut == boundaries[b]);
      ASSERT_LE(recovered->events_applied, full_stream->size());
      for (size_t i = recovered->events_applied; i < full_stream->size();
           ++i) {
        ApplyConcurrentJournalEvent(recovered->server.get(),
                                    (*full_stream)[i]);
      }
      recovered->server->Finish();
      ExpectSameConcurrentState(golden, *recovered->server);
    }
  }
}

TEST(ConcurrentRecovery, CheckpointRestoreRoundTripMidStream) {
  SyntheticWorkloadOptions small;
  small.num_users = 8;
  small.num_epochs = 2;
  small.requests_per_epoch = 8;
  const EpochedWorkload workload = MakeUniformWorkload(small);
  const std::vector<JournalEvent> stream = FlattenConcurrentWorkload(workload);
  // Index of the first epoch close.
  size_t first_epoch_end = 0;
  while (stream[first_epoch_end].kind != JournalEvent::Kind::kEpochEnd) {
    ++first_epoch_end;
  }

  ConcurrentServer original(TwoShards(nullptr));
  for (size_t i = 0; i <= first_epoch_end; ++i) {
    ApplyConcurrentJournalEvent(&original, stream[i]);
  }
  const auto blob = original.Checkpoint();
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();

  ConcurrentServer restored(TwoShards(nullptr));
  ASSERT_TRUE(restored.RestoreFrom(*blob, Registry()).ok());

  for (size_t i = first_epoch_end + 1; i < stream.size(); ++i) {
    ApplyConcurrentJournalEvent(&original, stream[i]);
    ApplyConcurrentJournalEvent(&restored, stream[i]);
  }
  original.Finish();
  restored.Finish();
  ExpectSameConcurrentState(original, restored);
}

TEST(ConcurrentRecovery, RestoreRequiresFreshServer) {
  ConcurrentServer source(TwoShards(nullptr));
  const auto blob = source.Checkpoint();
  ASSERT_TRUE(blob.ok());
  source.Finish();

  ConcurrentServer streamed(TwoShards(nullptr));
  streamed.SubmitLocationUpdate(1, geo::STPoint{{1.0, 2.0}, 10});
  EXPECT_EQ(streamed.RestoreFrom(*blob, Registry()).code(),
            common::StatusCode::kFailedPrecondition);
  streamed.Finish();
}

TEST(ConcurrentRecovery, RestoreRejectsShardCountMismatch) {
  ConcurrentServer source(TwoShards(nullptr));
  const auto blob = source.Checkpoint();
  ASSERT_TRUE(blob.ok());
  source.Finish();

  ConcurrentServerOptions three;
  three.num_shards = 3;
  ConcurrentServer target(three);
  EXPECT_FALSE(target.RestoreFrom(*blob, Registry()).ok());
  target.Finish();
}

}  // namespace
}  // namespace ts
}  // namespace histkanon
