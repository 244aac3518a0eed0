// M1 — google-benchmark microbenchmarks for the spatio-temporal indexes:
// insertion, range queries, and the Algorithm-1 nearest-per-user query.

#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/stindex/brute_force_index.h"
#include "src/stindex/grid_index.h"
#include "src/stindex/rtree.h"

namespace histkanon {
namespace {

std::vector<stindex::Entry> MakeSamples(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<stindex::Entry> entries;
  entries.reserve(n);
  const int64_t users = std::max<int64_t>(10, static_cast<int64_t>(n / 50));
  for (size_t i = 0; i < n; ++i) {
    entries.push_back(stindex::Entry{
        rng.UniformInt(0, users - 1),
        geo::STPoint{{rng.Uniform(0, 10000), rng.Uniform(0, 10000)},
                     rng.UniformInt(0, 7 * 86400)}});
  }
  return entries;
}

template <typename Index>
std::unique_ptr<Index> BuildIndex(const std::vector<stindex::Entry>& entries) {
  auto index = std::make_unique<Index>();
  for (const stindex::Entry& entry : entries) {
    index->Insert(entry.user, entry.sample);
  }
  return index;
}

template <typename Index>
void BM_Insert(benchmark::State& state) {
  const auto entries =
      MakeSamples(static_cast<size_t>(state.range(0)), 11);
  for (auto _ : state) {
    Index index;
    for (const stindex::Entry& entry : entries) {
      index.Insert(entry.user, entry.sample);
    }
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Insert<stindex::BruteForceIndex>)->Arg(10000);
BENCHMARK(BM_Insert<stindex::GridIndex>)->Arg(10000);
BENCHMARK(BM_Insert<stindex::RTree>)->Arg(10000);

// Live ingest into one hot cell, one sample per second, with every
// `late_every`-th one (0 = none) arriving `late_s` seconds late: 30 s
// late is shifted into the sorted pillar, 600 s late starts a delta tail
// that in-order samples then join until it is merged.  A NearestPerUser
// query after every 16 inserts pays for scanning the pillar.
void BM_GridIndexLiveIngest(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t late_every = static_cast<size_t>(state.range(1));
  const geo::Instant late_s = state.range(2);
  common::Rng rng(31);
  std::vector<stindex::Entry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    geo::Instant t = static_cast<geo::Instant>(i);
    if (late_every > 0 && i % late_every == late_every - 1) t -= late_s;
    entries.push_back(stindex::Entry{
        rng.UniformInt(0, 199),
        geo::STPoint{{rng.Uniform(0, 100), rng.Uniform(0, 100)}, t}});
  }
  const geo::STMetric metric;
  for (auto _ : state) {
    stindex::GridIndex index;
    for (size_t i = 0; i < n; ++i) {
      index.Insert(entries[i].user, entries[i].sample);
      if (i % 16 == 15) {
        benchmark::DoNotOptimize(
            index.NearestPerUser(entries[i].sample, 5, -1, metric));
      }
    }
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GridIndexLiveIngest)
    ->Args({10000, 0, 0})
    ->Args({10000, 32, 30})
    ->Args({10000, 32, 600});

void BM_RTreeBulkLoad(benchmark::State& state) {
  const auto entries =
      MakeSamples(static_cast<size_t>(state.range(0)), 13);
  for (auto _ : state) {
    stindex::RTree tree = stindex::RTree::BulkLoad(entries);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(10000)->Arg(100000);

template <typename Index>
void BM_NearestPerUser(benchmark::State& state) {
  const auto entries =
      MakeSamples(static_cast<size_t>(state.range(0)), 17);
  const auto index = BuildIndex<Index>(entries);
  common::Rng rng(19);
  const geo::STMetric metric;
  const size_t k = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    const geo::STPoint q{{rng.Uniform(0, 10000), rng.Uniform(0, 10000)},
                         rng.UniformInt(0, 7 * 86400)};
    benchmark::DoNotOptimize(index->NearestPerUser(q, k, -1, metric));
  }
}
BENCHMARK(BM_NearestPerUser<stindex::BruteForceIndex>)
    ->Args({10000, 5})
    ->Args({100000, 5});
BENCHMARK(BM_NearestPerUser<stindex::GridIndex>)
    ->Args({10000, 5})
    ->Args({100000, 5});
BENCHMARK(BM_NearestPerUser<stindex::RTree>)
    ->Args({10000, 5})
    ->Args({100000, 5});

template <typename Index>
void BM_RangeQuery(benchmark::State& state) {
  const auto entries =
      MakeSamples(static_cast<size_t>(state.range(0)), 23);
  const auto index = BuildIndex<Index>(entries);
  common::Rng rng(29);
  for (auto _ : state) {
    const double x = rng.Uniform(0, 10000);
    const double y = rng.Uniform(0, 10000);
    const geo::Instant t = rng.UniformInt(0, 7 * 86400);
    const geo::STBox box{geo::Rect{x - 250, y - 250, x + 250, y + 250},
                         geo::TimeInterval{t - 1800, t + 1800}};
    benchmark::DoNotOptimize(index->RangeQuery(box));
  }
}
BENCHMARK(BM_RangeQuery<stindex::BruteForceIndex>)->Arg(100000);
BENCHMARK(BM_RangeQuery<stindex::GridIndex>)->Arg(100000);
BENCHMARK(BM_RangeQuery<stindex::RTree>)->Arg(100000);

}  // namespace
}  // namespace histkanon
