// Unit tests for the TS durability layer: snapshot round-trips, journal
// scan semantics (snapshot supersedes prior events; damage discarded),
// restore preconditions, and the journal file round-trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/dur/framing.h"
#include "src/tgran/granularity.h"
#include "src/ts/durability.h"
#include "src/ts/workload.h"

namespace histkanon {
namespace ts {
namespace {

SyntheticWorkloadOptions SmallWorkload() {
  SyntheticWorkloadOptions options;
  options.num_users = 10;
  options.num_epochs = 3;
  options.requests_per_epoch = 12;
  options.lbqid_every = 2;
  return options;
}

const tgran::GranularityRegistry& Registry() {
  static const tgran::GranularityRegistry* registry =
      new tgran::GranularityRegistry(tgran::GranularityRegistry::WithDefaults());
  return *registry;
}

void ExpectSameOutcome(const ProcessOutcome& a, const ProcessOutcome& b,
                       size_t i) {
  EXPECT_EQ(a.disposition, b.disposition) << "request " << i;
  EXPECT_EQ(a.forwarded, b.forwarded) << "request " << i;
  EXPECT_EQ(a.exact, b.exact) << "request " << i;
  EXPECT_EQ(a.hk_anonymity, b.hk_anonymity) << "request " << i;
  EXPECT_EQ(a.matched_lbqid, b.matched_lbqid) << "request " << i;
  EXPECT_EQ(a.lbqid_index, b.lbqid_index) << "request " << i;
  EXPECT_EQ(a.element_index, b.element_index) << "request " << i;
  EXPECT_EQ(a.lbqid_completed, b.lbqid_completed) << "request " << i;
  // Pseudonyms and msgids INCLUDED: the snapshot carries the RNG streams.
  EXPECT_EQ(a.forwarded_request.msgid, b.forwarded_request.msgid)
      << "request " << i;
  EXPECT_EQ(a.forwarded_request.pseudonym, b.forwarded_request.pseudonym)
      << "request " << i;
  EXPECT_EQ(a.forwarded_request.service, b.forwarded_request.service)
      << "request " << i;
  EXPECT_EQ(a.forwarded_request.data, b.forwarded_request.data)
      << "request " << i;
  EXPECT_EQ(a.forwarded_request.context.area.min_x,
            b.forwarded_request.context.area.min_x)
      << "request " << i;
  EXPECT_EQ(a.forwarded_request.context.area.max_x,
            b.forwarded_request.context.area.max_x)
      << "request " << i;
  EXPECT_EQ(a.forwarded_request.context.time.lo,
            b.forwarded_request.context.time.lo)
      << "request " << i;
  EXPECT_EQ(a.forwarded_request.context.time.hi,
            b.forwarded_request.context.time.hi)
      << "request " << i;
}

void ExpectSameServers(const TrustedServer& a, const TrustedServer& b) {
  ASSERT_EQ(a.outcomes().size(), b.outcomes().size());
  for (size_t i = 0; i < a.outcomes().size(); ++i) {
    ExpectSameOutcome(a.outcomes()[i], b.outcomes()[i], i);
  }
  EXPECT_EQ(a.stats().requests, b.stats().requests);
  EXPECT_EQ(a.stats().forwarded_generalized, b.stats().forwarded_generalized);
  EXPECT_EQ(a.stats().unlink_successes, b.stats().unlink_successes);
  EXPECT_EQ(a.stats().generalized_area_sum, b.stats().generalized_area_sum);
  const auto audits_a = a.AuditTraces();
  const auto audits_b = b.AuditTraces();
  ASSERT_EQ(audits_a.size(), audits_b.size());
  for (size_t i = 0; i < audits_a.size(); ++i) {
    EXPECT_EQ(audits_a[i].user, audits_b[i].user);
    EXPECT_EQ(audits_a[i].steps, audits_b[i].steps);
    EXPECT_EQ(audits_a[i].tainted, audits_b[i].tainted);
    EXPECT_EQ(audits_a[i].hka_satisfied, audits_b[i].hka_satisfied);
  }
}

TEST(Recovery, SnapshotRoundTripsMidWorkload) {
  const EpochedWorkload workload = MakeUniformWorkload(SmallWorkload());
  const std::vector<JournalEvent> events = FlattenSerialWorkload(workload);
  ASSERT_GT(events.size(), 4u);
  const size_t half = events.size() / 2;

  // Baseline: every event on one server.
  TrustedServer baseline;
  for (const JournalEvent& event : events) {
    ApplyJournalEvent(&baseline, event);
  }

  // Checkpoint at the midpoint, restore into a fresh server, continue.
  TrustedServer first_half;
  for (size_t i = 0; i < half; ++i) ApplyJournalEvent(&first_half, events[i]);
  const auto snapshot = first_half.Checkpoint();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  TrustedServer restored;
  ASSERT_TRUE(restored.RestoreFrom(*snapshot, Registry()).ok());
  for (size_t i = half; i < events.size(); ++i) {
    ApplyJournalEvent(&restored, events[i]);
  }
  ExpectSameServers(baseline, restored);
}

TEST(Recovery, RestoreRequiresFreshServer) {
  TrustedServer server;
  const auto snapshot = server.Checkpoint();
  ASSERT_TRUE(snapshot.ok());
  server.OnLocationUpdate(1, geo::STPoint{{10.0, 20.0}, 100});
  const common::Status status = server.RestoreFrom(*snapshot, Registry());
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
}

TEST(Recovery, RestoreVerifiesFingerprint) {
  TrustedServer source;
  const auto snapshot = source.Checkpoint();
  ASSERT_TRUE(snapshot.ok());
  TrustedServerOptions different;
  different.pseudonym_seed = 0xdeadbeefULL;
  TrustedServer target(different);
  const common::Status status = target.RestoreFrom(*snapshot, Registry());
  EXPECT_EQ(status.code(), common::StatusCode::kFailedPrecondition);
}

TEST(Recovery, RestoreRejectsGarbage) {
  TrustedServer server;
  EXPECT_FALSE(server.RestoreFrom("definitely not a snapshot", Registry()).ok());
}

TEST(Recovery, WriteCheckpointNeedsAJournal) {
  TrustedServer server;
  EXPECT_EQ(server.WriteCheckpoint().code(),
            common::StatusCode::kFailedPrecondition);
}

TEST(Recovery, JournalCapturesTheEventStream) {
  const EpochedWorkload workload = MakeUniformWorkload(SmallWorkload());
  const std::vector<JournalEvent> events = FlattenSerialWorkload(workload);

  TsJournal journal;
  TrustedServer server;
  server.AttachJournal(&journal);
  for (const JournalEvent& event : events) ApplyJournalEvent(&server, event);
  EXPECT_EQ(journal.event_count(), events.size());

  const auto scanned = ScanJournal(journal.bytes(), Registry());
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->clean);
  EXPECT_TRUE(scanned->snapshot.empty());
  ASSERT_EQ(scanned->events.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(scanned->events[i].kind, events[i].kind) << "event " << i;
    EXPECT_EQ(scanned->events[i].user, events[i].user) << "event " << i;
    EXPECT_EQ(scanned->events[i].point, events[i].point) << "event " << i;
    EXPECT_EQ(scanned->events[i].data, events[i].data) << "event " << i;
  }
}

TEST(Recovery, SnapshotRecordSupersedesPriorEvents) {
  const EpochedWorkload workload = MakeUniformWorkload(SmallWorkload());
  const std::vector<JournalEvent> events = FlattenSerialWorkload(workload);
  const size_t half = events.size() / 2;

  TsJournal journal;
  TrustedServer server;
  server.AttachJournal(&journal);
  for (size_t i = 0; i < half; ++i) ApplyJournalEvent(&server, events[i]);
  ASSERT_TRUE(server.WriteCheckpoint().ok());
  for (size_t i = half; i < events.size(); ++i) {
    ApplyJournalEvent(&server, events[i]);
  }

  const auto scanned = ScanJournal(journal.bytes(), Registry());
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->clean);
  EXPECT_FALSE(scanned->snapshot.empty());
  EXPECT_EQ(scanned->events_before_snapshot, half);
  EXPECT_EQ(scanned->events.size(), events.size() - half);
  EXPECT_EQ(scanned->total_events, events.size());

  // DecodeAllEvents still reports the full stream.
  const auto all = DecodeAllEvents(journal.bytes(), Registry());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), events.size());

  // And recovery from the journal reproduces the uninterrupted server.
  const auto recovered = RecoverTrustedServer(
      journal.bytes(), TrustedServerOptions(), Registry());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->clean_tail);
  EXPECT_EQ(recovered->events_applied, events.size());
  ExpectSameServers(server, *recovered->server);
}

TEST(Recovery, JournalFileRoundTrips) {
  const EpochedWorkload workload = MakeUniformWorkload(SmallWorkload());
  const std::vector<JournalEvent> events = FlattenSerialWorkload(workload);

  TsJournal journal;
  TrustedServer server;
  server.AttachJournal(&journal);
  for (const JournalEvent& event : events) ApplyJournalEvent(&server, event);

  const std::string path = ::testing::TempDir() + "/histkanon_journal.bin";
  ASSERT_TRUE(journal.WriteToFile(path).ok());
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file.is_open());
  std::ostringstream contents;
  contents << file.rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(contents.str(), journal.bytes());

  const auto recovered =
      RecoverTrustedServer(contents.str(), TrustedServerOptions(), Registry());
  ASSERT_TRUE(recovered.ok());
  ExpectSameServers(server, *recovered->server);
}

TEST(Recovery, UndecodableRecordStopsTheScan) {
  TsJournal journal;
  TrustedServer server;
  server.AttachJournal(&journal);
  server.OnLocationUpdate(1, geo::STPoint{{1.0, 2.0}, 10});
  const size_t intact = journal.size();
  // A CRC-valid record with an unknown type byte: framing accepts it, the
  // semantic scan must treat it as damage.
  std::string bytes(journal.bytes());
  dur::AppendRecord(&bytes, "\x7fgarbage");
  const auto scanned = ScanJournal(bytes, Registry());
  ASSERT_TRUE(scanned.ok());
  EXPECT_FALSE(scanned->clean);
  EXPECT_EQ(scanned->events.size(), 1u);
  EXPECT_EQ(scanned->valid_bytes, intact);
}

TEST(Recovery, EpochMarkerHeavyJournalScansIntoOneAllocation) {
  // A long wire run journals one epoch marker per window.  The scan sizes
  // its event vector from the framing pass instead of doubling into it.
  TsJournal journal;
  JournalEvent marker;
  marker.kind = JournalEvent::Kind::kEpochEnd;
  JournalEvent update;
  update.kind = JournalEvent::Kind::kUpdate;
  update.user = 4;
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(journal.AppendEvent(marker).ok());
    if (i % 100 == 0) {
      update.point = geo::STPoint{{1.0 * i, 2.0}, i};
      ASSERT_TRUE(journal.AppendEvent(update).ok());
    }
  }
  const auto records = dur::ScanRecords(journal.bytes());
  ASSERT_TRUE(records.ok());
  const auto scanned = ScanJournal(journal.bytes(), Registry());
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->clean);
  ASSERT_EQ(scanned->events.size(), 5050u);
  EXPECT_EQ(scanned->events.size(), records->records.size());
  EXPECT_LE(scanned->events.capacity(), records->records.size());
  EXPECT_EQ(scanned->events[1].kind, JournalEvent::Kind::kUpdate);
  EXPECT_EQ(scanned->events[1].point, (geo::STPoint{{0.0, 2.0}, 0}));
}

TEST(Recovery, LbqidRegistrationSurvivesTheJournal) {
  // An LBQID with a non-trivial recurrence round-trips through the
  // event codec by granularity NAME.
  auto interval = tgran::UTimeInterval::FromHours(7, 9);
  ASSERT_TRUE(interval.ok());
  auto day = Registry().Find("day");
  ASSERT_TRUE(day.ok());
  auto recurrence = tgran::Recurrence::Create(
      {tgran::RecurrenceTerm{2, *day}});
  ASSERT_TRUE(recurrence.ok());
  auto lbqid = lbqid::Lbqid::Create(
      "commute",
      {lbqid::LbqidElement{geo::Rect{0.0, 0.0, 100.0, 100.0}, *interval}},
      *recurrence);
  ASSERT_TRUE(lbqid.ok());

  JournalEvent event;
  event.kind = JournalEvent::Kind::kRegisterLbqid;
  event.user = 7;
  event.lbqid = std::make_shared<const lbqid::Lbqid>(*lbqid);
  const std::string payload = EncodeJournalEvent(event);
  const auto decoded = DecodeJournalEvent(payload, Registry());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_NE(decoded->lbqid, nullptr);
  EXPECT_EQ(decoded->lbqid->name(), "commute");
  ASSERT_EQ(decoded->lbqid->elements().size(), 1u);
  EXPECT_EQ(decoded->lbqid->elements()[0].area.max_x, 100.0);
  ASSERT_EQ(decoded->lbqid->recurrence().terms().size(), 1u);
  EXPECT_EQ(decoded->lbqid->recurrence().terms()[0].count, 2);
  EXPECT_EQ(decoded->lbqid->recurrence().terms()[0].granularity->name(),
            "day");
}

}  // namespace
}  // namespace ts
}  // namespace histkanon
