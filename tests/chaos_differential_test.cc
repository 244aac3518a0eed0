// The chaos differential (the ISSUE's acceptance proof): randomized
// journal-fault schedules over the three workload shapes, asserting that
// under ANY schedule the server (serial and sharded) never crashes, never
// forwards or applies an unadmitted event, and converges BYTE-IDENTICALLY
// with a fault-free twin fed only the events the faulted run accepted.
//
// Scaling: HISTKANON_CHAOS_SCHEDULES (default 12 locally; CI sets 100)
// fault schedules per workload shape, HISTKANON_CHAOS_SEED rotates the
// whole family.  Every schedule is deterministic given the seed.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/fail/failpoint.h"
#include "src/fail/sites.h"
#include "src/obs/causal_trace.h"
#include "src/obs/slo.h"
#include "src/tgran/granularity.h"
#include "src/ts/concurrent_server.h"
#include "src/ts/durability.h"
#include "src/ts/workload.h"

namespace histkanon {
namespace ts {
namespace {

const tgran::GranularityRegistry& Registry() {
  static const tgran::GranularityRegistry* registry =
      new tgran::GranularityRegistry(
          tgran::GranularityRegistry::WithDefaults());
  return *registry;
}

size_t EnvCount(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

size_t NumSchedules() { return EnvCount("HISTKANON_CHAOS_SCHEDULES", 12); }
uint64_t BaseSeed() {
  return static_cast<uint64_t>(EnvCount("HISTKANON_CHAOS_SEED", 1));
}

// Compact per-request transcript for readable failure diffs.
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

// One randomized fault schedule for the journal-append site, drawn from
// the schedule rng: a probability coin, a periodic fault, or a one-shot
// burst anchor.  All deterministic for a fixed seed.
void ArmJournalFault(common::Rng* rng, uint64_t site_seed) {
  fail::FailPoint* point =
      fail::Registry::Instance().Get(fail::kDurJournalAppend);
  const fail::Action action =
      fail::ErrorAction(common::StatusCode::kInternal, "chaos: journal fault");
  switch (rng->UniformInt(0, 2)) {
    case 0:
      point->Arm(action,
                 fail::WithProbability(rng->Uniform(0.02, 0.35), site_seed));
      break;
    case 1:
      point->Arm(action, fail::EveryNth(
                             static_cast<uint64_t>(rng->UniformInt(2, 9))));
      break;
    default:
      point->Arm(action,
                 fail::OnNth(static_cast<uint64_t>(rng->UniformInt(1, 20))));
      break;
  }
}

// Small shapes: the schedule count is the scaling axis, not the workload.
EpochedWorkload MakeWorkload(int shape) {
  SyntheticWorkloadOptions options;
  options.num_users = 10;
  options.num_epochs = 3;
  options.requests_per_epoch = 12;
  options.lbqid_every = 2;
  switch (shape) {
    case 0:
      return MakeUniformWorkload(options);
    case 1:
      return MakeHotspotWorkload(options);
    default: {
      CommuterWorkloadOptions commuter;
      commuter.num_commuters = 4;
      commuter.num_wanderers = 10;
      commuter.duration = 1800;
      commuter.epoch_seconds = 600;
      return MakeCommuterWorkload(commuter);
    }
  }
}

const char* ShapeName(int shape) {
  switch (shape) {
    case 0:
      return "uniform";
    case 1:
      return "hotspot";
    default:
      return "commuter";
  }
}

class ChaosDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kCompiledIn) GTEST_SKIP() << "failpoints compiled out";
  }
  void TearDown() override { fail::Registry::Instance().DisarmAll(); }
};

// Serial: server A runs the full input stream with a faulty journal; twin
// B (fault-free, no journal) is fed ONLY the events A admitted.  A and B
// must end byte-identical, and A's journal must hold exactly the admitted
// events.
void RunSerialSchedule(const std::vector<JournalEvent>& events,
                       common::Rng* rng, uint64_t site_seed) {
  TrustedServerOptions options;
  options.overload.breaker.probe_after =
      static_cast<size_t>(rng->UniformInt(1, 4));
  TsJournal journal;
  TrustedServer a(options);
  a.AttachJournal(&journal);
  TrustedServer b(options);

  ArmJournalFault(rng, site_seed);
  for (const JournalEvent& event : events) {
    const uint64_t before = a.admitted_events();
    ApplyJournalEvent(&a, event);
    if (a.admitted_events() == before + 1) {
      // Admitted (journaled) -> the fault-free twin sees it too.
      ApplyJournalEvent(&b, event);
    }
  }
  fail::Registry::Instance().DisarmAll();

  // No unsafe forward: everything applied was journaled first.
  EXPECT_EQ(journal.event_count(), a.admitted_events());
  EXPECT_EQ(a.outcomes().size(), b.outcomes().size());
  EXPECT_EQ(a.stats().requests + a.shed_requests(),
            static_cast<size_t>(std::count_if(
                events.begin(), events.end(), [](const JournalEvent& e) {
                  return e.kind == JournalEvent::Kind::kRequest;
                })));

  // Byte-identical convergence with the fault-free twin.
  EXPECT_EQ(DispositionString(a.outcomes()), DispositionString(b.outcomes()));
  const auto snap_a = a.Checkpoint();
  const auto snap_b = b.Checkpoint();
  ASSERT_TRUE(snap_a.ok());
  ASSERT_TRUE(snap_b.ok());
  EXPECT_EQ(*snap_a, *snap_b) << "faulted run diverged from its twin";

  // The journal of the faulted run replays to the same state.
  const auto recovered =
      RecoverTrustedServer(journal.bytes(), options, Registry());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->clean_tail);
  const auto snap_r = recovered->server->Checkpoint();
  ASSERT_TRUE(snap_r.ok());
  EXPECT_EQ(*snap_a, *snap_r) << "journal replay diverged from the live run";

  // With the fault cleared, the breaker always finds its way home.
  for (int i = 0; i < 16 && a.health() != HealthState::kHealthy; ++i) {
    (void)a.ApplyLocationUpdate(0, geo::STPoint{geo::Point{1, 1},
                                                9000000 + i});
  }
  EXPECT_EQ(a.health(), HealthState::kHealthy);
}

// Concurrent: the sharded front-end under the same fault family.  Twin B
// receives A's admitted data events plus EVERY epoch marker (markers are
// control-plane: always emitted, back-filled into the journal later).
void RunConcurrentSchedule(const EpochedWorkload& workload,
                           const std::vector<JournalEvent>& events,
                           common::Rng* rng, uint64_t site_seed) {
  ConcurrentServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 256;
  options.breaker.probe_after = static_cast<size_t>(rng->UniformInt(1, 4));

  TsJournal journal;
  ConcurrentServerOptions options_a = options;
  options_a.journal = &journal;
  ConcurrentServer a(options_a);
  ConcurrentServer b(options);
  for (const anon::ServiceProfile& service : workload.services) {
    ASSERT_TRUE(a.RegisterService(service).ok());
    ASSERT_TRUE(b.RegisterService(service).ok());
  }

  ArmJournalFault(rng, site_seed);
  for (const JournalEvent& event : events) {
    if (event.kind == JournalEvent::Kind::kRegisterService) continue;
    const uint64_t before = a.admitted_events();
    ApplyConcurrentJournalEvent(&a, event);
    if (event.kind == JournalEvent::Kind::kEpochEnd) {
      // Markers always reach the shards, journaled or not.
      ApplyConcurrentJournalEvent(&b, event);
    } else if (a.admitted_events() == before + 1) {
      ApplyConcurrentJournalEvent(&b, event);
    }
  }
  fail::Registry::Instance().DisarmAll();
  a.Finish();
  b.Finish();

  // Convergence: dispositions and forwarded boxes of the accepted
  // requests are identical (A's outcomes log only admitted requests).
  EXPECT_EQ(a.outcomes().size(), b.outcomes().size());
  EXPECT_EQ(DispositionString(a.outcomes()), DispositionString(b.outcomes()));
  for (size_t i = 0; i < a.outcomes().size() && i < b.outcomes().size();
       ++i) {
    const ProcessOutcome& oa = a.outcomes()[i];
    const ProcessOutcome& ob = b.outcomes()[i];
    if (oa.forwarded && ob.forwarded) {
      EXPECT_EQ(oa.forwarded_request.context.area.min_x,
                ob.forwarded_request.context.area.min_x);
      EXPECT_EQ(oa.forwarded_request.context.area.max_x,
                ob.forwarded_request.context.area.max_x);
      EXPECT_EQ(oa.forwarded_request.context.time.lo,
                ob.forwarded_request.context.time.lo);
    }
  }
  EXPECT_EQ(a.stats().requests, b.stats().requests);
  EXPECT_EQ(a.stats().forwarded_generalized, b.stats().forwarded_generalized);

  // Accounting: every submitted request was either admitted or shed.
  const size_t total_requests = static_cast<size_t>(std::count_if(
      events.begin(), events.end(), [](const JournalEvent& e) {
        return e.kind == JournalEvent::Kind::kRequest;
      }));
  EXPECT_EQ(a.outcomes().size() + a.shed_requests(), total_requests);
}

TEST_F(ChaosDifferentialTest, SerialConvergesUnderRandomFaultSchedules) {
  const size_t schedules = NumSchedules();
  for (int shape = 0; shape < 3; ++shape) {
    const EpochedWorkload workload = MakeWorkload(shape);
    const std::vector<JournalEvent> events = FlattenSerialWorkload(workload);
    ASSERT_FALSE(events.empty());
    for (size_t s = 0; s < schedules; ++s) {
      SCOPED_TRACE(std::string(ShapeName(shape)) + " schedule " +
                   std::to_string(s));
      common::Rng rng(BaseSeed() * 7919 + static_cast<uint64_t>(shape) * 131 +
                      s);
      RunSerialSchedule(events, &rng, BaseSeed() + s * 977);
    }
  }
}

// One traced chaos run: the causal tracer rides a sharded, fault-injected
// schedule, every admitted request must come out with a complete chain,
// and when HISTKANON_CHAOS_TRACE_OUT is set (the CI chaos job points it
// at an artifact path) the Chrome-trace/Perfetto JSON is written there
// for post-mortem timeline inspection.
TEST_F(ChaosDifferentialTest, TracedRunExportsPerfettoTimeline) {
  const EpochedWorkload workload = MakeWorkload(0);
  const std::vector<JournalEvent> events = FlattenConcurrentWorkload(workload);

  obs::CausalTracer tracer;
  obs::SloView slo;
  TsJournal journal;
  ConcurrentServerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 256;
  options.breaker.probe_after = 2;
  options.journal = &journal;
  options.server.causal = &tracer;
  options.server.slo = &slo;
  options.server.trace_id_seed = 1;

  size_t admitted = 0;
  {
    ConcurrentServer server(std::move(options));
    for (const anon::ServiceProfile& service : workload.services) {
      ASSERT_TRUE(server.RegisterService(service).ok());
    }
    common::Rng rng(BaseSeed() * 31337);
    ArmJournalFault(&rng, BaseSeed());
    for (const JournalEvent& event : events) {
      if (event.kind == JournalEvent::Kind::kRegisterService) continue;
      ApplyConcurrentJournalEvent(&server, event);
    }
    fail::Registry::Instance().DisarmAll();
    server.Finish();
    admitted = server.outcomes().size();
    EXPECT_EQ(server.next_trace_id(), 1u + admitted);
  }
  ASSERT_GT(admitted, 0u);

  // Every admitted request id reconstructs its chain end to end.
  std::map<uint64_t, std::set<std::string>> names_by_trace;
  for (const obs::CausalSpanRecord& span : tracer.Records()) {
    names_by_trace[span.trace_id].insert(span.name);
  }
  for (uint64_t tid = 1; tid <= admitted; ++tid) {
    const auto it = names_by_trace.find(tid);
    ASSERT_NE(it, names_by_trace.end()) << "no spans for trace " << tid;
    for (const char* name :
         {"admission", "journal_append", "queue_wait", "shard_serve",
          "request"}) {
      EXPECT_TRUE(it->second.count(name))
          << "trace " << tid << " missing " << name;
    }
  }

  const char* out_path = std::getenv("HISTKANON_CHAOS_TRACE_OUT");
  if (out_path != nullptr && *out_path != '\0') {
    std::ofstream out(out_path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot open " << out_path;
    out << tracer.ToChromeTraceJson();
    ASSERT_TRUE(out.good()) << "short write to " << out_path;
  }
}

TEST_F(ChaosDifferentialTest, ConcurrentConvergesUnderRandomFaultSchedules) {
  // The sharded run spins worker threads per schedule; keep the count a
  // fraction of the serial sweep so CI time stays bounded.
  const size_t schedules = (NumSchedules() + 3) / 4;
  for (int shape = 0; shape < 3; ++shape) {
    const EpochedWorkload workload = MakeWorkload(shape);
    const std::vector<JournalEvent> events =
        FlattenConcurrentWorkload(workload);
    ASSERT_FALSE(events.empty());
    for (size_t s = 0; s < schedules; ++s) {
      SCOPED_TRACE(std::string(ShapeName(shape)) + " schedule " +
                   std::to_string(s));
      common::Rng rng(BaseSeed() * 104729 +
                      static_cast<uint64_t>(shape) * 131 + s);
      RunConcurrentSchedule(workload, events, &rng, BaseSeed() + s * 613);
    }
  }
}

}  // namespace
}  // namespace ts
}  // namespace histkanon
