// Seed-corpus fuzz test for the durability parsers: mutated valid
// journals, snapshot blobs, and mod-db texts — plus outright random
// garbage — must never crash, hang, or trip a sanitizer.  ScanJournal /
// RecoverTrustedServer / TrustedServer::RestoreFrom / mod::ReadDb either
// return a valid result or a clean error Status.  The CI sanitizer jobs
// run this with HISTKANON_FUZZ_ITERATIONS=2000; the default stays small
// enough for the regular suite.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/dur/framing.h"
#include "src/mod/io.h"
#include "src/tgran/granularity.h"
#include "src/ts/durability.h"
#include "src/ts/workload.h"

namespace histkanon {
namespace ts {
namespace {

size_t Iterations() {
  const char* env = std::getenv("HISTKANON_FUZZ_ITERATIONS");
  if (env != nullptr) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 300;
}

const tgran::GranularityRegistry& Registry() {
  static const tgran::GranularityRegistry* registry =
      new tgran::GranularityRegistry(tgran::GranularityRegistry::WithDefaults());
  return *registry;
}

// A real journal (events + an embedded snapshot) from a tiny workload.
std::string SeedJournal() {
  SyntheticWorkloadOptions options;
  options.num_users = 6;
  options.num_epochs = 2;
  options.requests_per_epoch = 6;
  const std::vector<JournalEvent> events =
      FlattenSerialWorkload(MakeUniformWorkload(options));
  TsJournal journal;
  TrustedServer server;
  server.AttachJournal(&journal);
  for (size_t i = 0; i < events.size(); ++i) {
    ApplyJournalEvent(&server, events[i]);
    if (i == events.size() / 2) {
      EXPECT_TRUE(server.WriteCheckpoint().ok());
    }
  }
  return std::string(journal.bytes());
}

std::string SeedSnapshot() {
  SyntheticWorkloadOptions options;
  options.num_users = 6;
  options.num_epochs = 2;
  options.requests_per_epoch = 6;
  const std::vector<JournalEvent> events =
      FlattenSerialWorkload(MakeUniformWorkload(options));
  TrustedServer server;
  for (const JournalEvent& event : events) ApplyJournalEvent(&server, event);
  auto blob = server.Checkpoint();
  EXPECT_TRUE(blob.ok());
  return blob.ok() ? *blob : std::string();
}

std::string SeedDbText() {
  SyntheticWorkloadOptions options;
  options.num_users = 6;
  options.num_epochs = 2;
  options.requests_per_epoch = 6;
  const std::vector<JournalEvent> events =
      FlattenSerialWorkload(MakeUniformWorkload(options));
  TrustedServer server;
  for (const JournalEvent& event : events) ApplyJournalEvent(&server, event);
  std::ostringstream text;
  EXPECT_TRUE(mod::WriteDb(server.db(), &text).ok());
  return text.str();
}

const std::vector<std::string>& SeedCorpus() {
  static const std::vector<std::string>* corpus = new std::vector<std::string>{
      SeedJournal(), SeedSnapshot(), SeedDbText()};
  return *corpus;
}

std::string Mutate(common::Rng* rng, std::string s) {
  const size_t mutations = static_cast<size_t>(rng->UniformInt(1, 4));
  for (size_t m = 0; m < mutations; ++m) {
    if (s.empty()) {
      s.push_back(static_cast<char>(rng->UniformInt(0, 255)));
      continue;
    }
    const size_t at = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(s.size()) - 1));
    switch (rng->UniformInt(0, 3)) {
      case 0:  // flip a byte (headers, lengths, CRCs, payloads alike)
        s[at] = static_cast<char>(rng->UniformInt(0, 255));
        break;
      case 1:  // truncate — the simulated torn tail
        s.resize(at);
        break;
      case 2:  // duplicate a span
        s.insert(at, s.substr(at, static_cast<size_t>(rng->UniformInt(1, 16))));
        break;
      default:  // splice in raw garbage
        for (int64_t n = rng->UniformInt(1, 12); n > 0; --n) {
          s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                   static_cast<char>(rng->UniformInt(0, 255)));
        }
        break;
    }
  }
  return s;
}

// Every parser under fuzz, applied to one input.  Crash-free is the test;
// verdicts are unconstrained.
void Exercise(const std::string& input) {
  (void)ScanJournal(input, Registry());
  (void)DecodeAllEvents(input, Registry());
  (void)RecoverTrustedServer(input, TrustedServerOptions(), Registry());
  TrustedServer fresh;
  (void)fresh.RestoreFrom(input, Registry());
  std::istringstream db_text(input);
  (void)mod::ReadDb(&db_text);
}

TEST(RecoveryFuzzTest, SeedCorpusParsesCleanly) {
  const auto scanned = ScanJournal(SeedCorpus()[0], Registry());
  ASSERT_TRUE(scanned.ok());
  EXPECT_TRUE(scanned->clean);
  EXPECT_FALSE(scanned->snapshot.empty());

  TrustedServer fresh;
  EXPECT_TRUE(fresh.RestoreFrom(SeedCorpus()[1], Registry()).ok());

  std::istringstream db_text(SeedCorpus()[2]);
  EXPECT_TRUE(mod::ReadDb(&db_text).ok());
}

TEST(RecoveryFuzzTest, MutatedCorpusNeverCrashes) {
  common::Rng rng(0xD0C70Bull);
  const std::vector<std::string>& corpus = SeedCorpus();
  const size_t iterations = Iterations();
  for (size_t i = 0; i < iterations; ++i) {
    const std::string& seed = corpus[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(corpus.size()) - 1))];
    Exercise(Mutate(&rng, seed));
  }
}

TEST(RecoveryFuzzTest, RandomGarbageNeverCrashes) {
  common::Rng rng(0xFEEDBEEFull);
  const size_t iterations = Iterations();
  for (size_t i = 0; i < iterations; ++i) {
    const size_t len =
        static_cast<size_t>(rng.UniformInt(0, 512));
    std::string garbage;
    garbage.reserve(len);
    for (size_t j = 0; j < len; ++j) {
      garbage.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    // Half the runs get a valid magic so the scan reaches the record
    // parser instead of bailing at the front door.
    if (i % 2 == 0) {
      garbage.insert(0, std::string(dur::JournalMagic()));
    }
    Exercise(garbage);
  }
}

}  // namespace
}  // namespace ts
}  // namespace histkanon
