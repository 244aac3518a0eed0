// Randomized property suite for the columnar hot tier (DESIGN.md §17):
// the pillar-grid index and the flat column kernels must answer every
// query identically to the BruteForceIndex / linear-scan oracles, on
// workloads shaped like the ones the server actually sees — uniform
// noise, hotspot clusters (deep pillars, delta-tail merges), and
// commuter traces (in-order pillar appends).  The same suite runs under
// -DHISTKANON_SIMD=OFF in CI; SIMD and scalar builds must agree
// bit-for-bit, so every EXPECT_EQ here doubles as a cross-build
// byte-identity check.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/geo/kernels.h"
#include "src/mod/cold_tier.h"
#include "src/mod/moving_object_db.h"
#include "src/stindex/brute_force_index.h"
#include "src/stindex/grid_index.h"
#include "src/stindex/tiered_view.h"

namespace histkanon {
namespace stindex {
namespace {

using geo::STBox;
using geo::STMetric;
using geo::STPoint;

struct Sample {
  mod::UserId user;
  STPoint point;
};

// -- Workload generators.  Every generator emits, per user, samples with
// strictly increasing time (the PHL append invariant).

std::vector<Sample> UniformWorkload(common::Rng* rng, size_t num_users,
                                    size_t per_user) {
  std::vector<Sample> samples;
  for (size_t u = 0; u < num_users; ++u) {
    int64_t t = rng->UniformInt(0, 50);
    for (size_t s = 0; s < per_user; ++s) {
      t += rng->UniformInt(1, 120);
      samples.push_back({static_cast<mod::UserId>(u),
                         {{rng->Uniform(0.0, 6000.0),
                           rng->Uniform(0.0, 6000.0)},
                          t}});
    }
  }
  return samples;
}

// A few dense centers: most samples land in a handful of grid pillars,
// exercising deep columns and (because insert order is per-user, not
// per-time) the unsorted delta tail and its merge.
std::vector<Sample> HotspotWorkload(common::Rng* rng, size_t num_users,
                                    size_t per_user) {
  const double centers[][2] = {{500, 500}, {510, 480}, {4000, 4000}};
  std::vector<Sample> samples;
  for (size_t u = 0; u < num_users; ++u) {
    int64_t t = rng->UniformInt(0, 50);
    for (size_t s = 0; s < per_user; ++s) {
      t += rng->UniformInt(1, 90);
      const auto& c = centers[rng->UniformInt(0, 2)];
      samples.push_back({static_cast<mod::UserId>(u),
                         {{c[0] + rng->Uniform(-60.0, 60.0),
                           c[1] + rng->Uniform(-60.0, 60.0)},
                          t}});
    }
  }
  return samples;
}

// Commuters oscillating home -> office along a per-user line, sampled on
// a shared clock: globally time-sorted arrival, the in-order pillar
// fast path.
std::vector<Sample> CommuterWorkload(common::Rng* rng, size_t num_users,
                                     size_t per_user) {
  std::vector<std::pair<double, double>> homes;
  homes.reserve(num_users);
  for (size_t u = 0; u < num_users; ++u) {
    homes.push_back({rng->Uniform(0.0, 800.0), rng->Uniform(0.0, 800.0)});
  }
  std::vector<Sample> samples;
  for (size_t s = 0; s < per_user; ++s) {
    const int64_t t = 100 * static_cast<int64_t>(s + 1);
    // Position along the commute as a triangle wave of the step index.
    const double phase =
        1.0 - std::abs(2.0 * (static_cast<double>(s % 8) / 8.0) - 1.0);
    for (size_t u = 0; u < num_users; ++u) {
      const double x = homes[u].first + phase * (5000.0 - homes[u].first);
      const double y = homes[u].second + phase * (5000.0 - homes[u].second);
      samples.push_back({static_cast<mod::UserId>(u), {{x, y}, t}});
    }
  }
  return samples;
}

std::vector<Entry> Canonical(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.user != b.user) return a.user < b.user;
              if (a.sample.t != b.sample.t) return a.sample.t < b.sample.t;
              if (a.sample.p.x != b.sample.p.x)
                return a.sample.p.x < b.sample.p.x;
              return a.sample.p.y < b.sample.p.y;
            });
  return entries;
}

void ExpectSameNeighbors(const std::vector<UserNeighbor>& got,
                         const std::vector<UserNeighbor>& expected,
                         const std::string& what) {
  ASSERT_EQ(got.size(), expected.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].user, expected[i].user) << what << " rank " << i;
    EXPECT_EQ(got[i].sample, expected[i].sample) << what << " rank " << i;
    // Bit-identity, not near-equality: both sides run the same
    // mul/add arithmetic (-ffp-contract=off) in the same order.
    EXPECT_EQ(got[i].distance, expected[i].distance) << what << " rank " << i;
  }
}

// Runs the full query battery — containment, nearest, LT-consistency —
// for one workload, comparing GridIndex + MovingObjectDb against the
// brute-force / linear oracles.
void RunWorkloadBattery(const std::vector<Sample>& samples, uint64_t seed,
                        const std::string& workload) {
  BruteForceIndex brute;
  GridIndex grid;
  mod::MovingObjectDb db;
  for (const Sample& s : samples) {
    brute.Insert(s.user, s.point);
    grid.Insert(s.user, s.point);
    ASSERT_TRUE(db.Append(s.user, s.point).ok()) << workload;
  }
  ASSERT_EQ(grid.size(), samples.size()) << workload;

  common::Rng rng(seed);
  const STMetric metric;
  for (int trial = 0; trial < 30; ++trial) {
    const std::string what = workload + " trial " + std::to_string(trial);
    // Containment: random boxes, some degenerate or empty.
    const double x = rng.Uniform(-500.0, 6000.0);
    const double y = rng.Uniform(-500.0, 6000.0);
    const int64_t t_lo = rng.UniformInt(0, 4000);
    const STBox box{{x, y, x + rng.Uniform(0.0, 2500.0),
                     y + rng.Uniform(0.0, 2500.0)},
                    {t_lo, t_lo + rng.UniformInt(0, 4000)}};
    EXPECT_EQ(Canonical(grid.RangeQuery(box)),
              Canonical(brute.RangeQuery(box)))
        << what;

    // Nearest: random query points and k, occasional excluded user.
    const STPoint query{{rng.Uniform(0.0, 6000.0), rng.Uniform(0.0, 6000.0)},
                        rng.UniformInt(0, 5000)};
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 10));
    const mod::UserId exclude =
        trial % 3 == 0 ? static_cast<mod::UserId>(
                             samples[rng.UniformInt(
                                         0, static_cast<int64_t>(
                                                samples.size() - 1))]
                                 .user)
                       : mod::kInvalidUser;
    ExpectSameNeighbors(grid.NearestPerUser(query, k, exclude, metric),
                        brute.NearestPerUser(query, k, exclude, metric),
                        what);

    // Per-PHL: bisected window scan vs the linear reference, and the
    // kernel-backed containment probe vs a by-hand sample scan.
    const mod::UserId user = samples[rng.UniformInt(
                                         0, static_cast<int64_t>(
                                                samples.size() - 1))]
                                 .user;
    const common::Result<const mod::Phl*> phl = db.GetPhl(user);
    ASSERT_TRUE(phl.ok()) << what;
    const auto fast = (*phl)->NearestSample(query, metric);
    const auto slow = (*phl)->NearestSampleLinear(query, metric);
    ASSERT_EQ(fast.has_value(), slow.has_value()) << what;
    if (fast.has_value()) {
      EXPECT_EQ(*fast, *slow) << what;
    }

    bool manual = false;
    for (size_t i = 0; i < (*phl)->hot_size() && !manual; ++i) {
      manual = box.Contains((*phl)->HotSample(i));
    }
    EXPECT_EQ((*phl)->HasSampleIn(box), manual) << what;

    // LT-consistency (Definition 7) over a two-context set.
    const std::vector<STBox> contexts = {
        box,
        STBox{{0.0, 0.0, 6000.0, 6000.0}, {0, 10000}}};
    EXPECT_EQ((*phl)->LtConsistentWith(contexts),
              (*phl)->HasSampleIn(contexts[0]) &&
                  (*phl)->HasSampleIn(contexts[1]))
        << what;
  }
}

TEST(ColumnarEquivalence, UniformWorkload) {
  common::Rng rng(11);
  RunWorkloadBattery(UniformWorkload(&rng, 24, 20), 101, "uniform");
}

TEST(ColumnarEquivalence, HotspotWorkload) {
  common::Rng rng(12);
  RunWorkloadBattery(HotspotWorkload(&rng, 24, 40), 102, "hotspot");
}

TEST(ColumnarEquivalence, CommuterWorkload) {
  common::Rng rng(13);
  RunWorkloadBattery(CommuterWorkload(&rng, 20, 24), 103, "commuter");
}

// One pillar fed every arrival order Insert tells apart — in order, a
// few entries late (shifted into a tailless pillar), far late (starts a
// delta tail that in-order samples then join until it is merged) — with
// removals in between.  Every answer must match the oracle built from the
// samples still present.
TEST(ColumnarEquivalence, LateSamplesIntoOnePillar) {
  common::Rng rng(15);
  GridIndex grid;
  std::vector<Sample> present;
  const STMetric metric;
  int64_t clock = 10000;
  for (int i = 0; i < 3000; ++i) {
    int64_t t = ++clock;
    const int64_t roll = rng.UniformInt(0, 9);
    if (roll == 0) t -= rng.UniformInt(1, 40);
    if (roll == 1) t -= rng.UniformInt(100, 5000);
    const Sample s{static_cast<mod::UserId>(rng.UniformInt(0, 30)),
                   {{rng.Uniform(0.0, 200.0), rng.Uniform(0.0, 200.0)}, t}};
    grid.Insert(s.user, s.point);
    present.push_back(s);
    if (i % 7 == 6) {
      const size_t victim = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(present.size() - 1)));
      ASSERT_TRUE(grid.Remove(present[victim].user, present[victim].point));
      present.erase(present.begin() + static_cast<ptrdiff_t>(victim));
    }
    if (i % 50 != 49) continue;
    BruteForceIndex brute;
    for (const Sample& p : present) brute.Insert(p.user, p.point);
    ASSERT_EQ(grid.size(), present.size());
    const std::string what = "after insert " + std::to_string(i);
    const STPoint query{{rng.Uniform(0.0, 200.0), rng.Uniform(0.0, 200.0)},
                        rng.UniformInt(5000, clock)};
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 12));
    ExpectSameNeighbors(
        grid.NearestPerUser(query, k, mod::kInvalidUser, metric),
        brute.NearestPerUser(query, k, mod::kInvalidUser, metric), what);
    const STBox box{{0.0, 0.0, 200.0, 200.0},
                    {query.t - 300, query.t + 300}};
    EXPECT_EQ(Canonical(grid.RangeQuery(box)),
              Canonical(brute.RangeQuery(box)))
        << what;
  }
}

// Const reads are race-free: several threads hammer ONE GridIndex with
// interleaved NearestPerUser / RangeQuery calls — the sharded serve
// phase's access pattern — and every answer must equal the serial
// BruteForceIndex oracle.  The hotspot workload's per-user insert order
// leaves unsorted delta tails on deep pillars, the state a query used to
// compact in place.  Named so the tsan job's `-R Concurrent` filter runs
// it under ThreadSanitizer.
TEST(ConcurrentGridIndex, ParallelReadersMatchBruteForce) {
  common::Rng rng(14);
  const std::vector<Sample> samples = HotspotWorkload(&rng, 48, 60);
  BruteForceIndex brute;
  GridIndex grid;
  for (const Sample& s : samples) {
    brute.Insert(s.user, s.point);
    grid.Insert(s.user, s.point);
  }

  struct Query {
    STPoint point;
    size_t k = 0;
    STBox box;
  };
  const STMetric metric;
  std::vector<Query> queries;
  std::vector<std::vector<UserNeighbor>> expected_nearest;
  std::vector<std::vector<Entry>> expected_range;
  for (int i = 0; i < 200; ++i) {
    Query q;
    const auto& near = samples[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(samples.size() - 1)))];
    q.point = STPoint{{near.point.p.x + rng.Uniform(-200.0, 200.0),
                       near.point.p.y + rng.Uniform(-200.0, 200.0)},
                      near.point.t + rng.UniformInt(-300, 300)};
    q.k = static_cast<size_t>(rng.UniformInt(1, 12));
    q.box = STBox{{q.point.p.x - 80.0, q.point.p.y - 80.0,
                   q.point.p.x + 80.0, q.point.p.y + 80.0},
                  {q.point.t - 900, q.point.t + 900}};
    expected_nearest.push_back(
        brute.NearestPerUser(q.point, q.k, mod::kInvalidUser, metric));
    expected_range.push_back(Canonical(brute.RangeQuery(q.box)));
    queries.push_back(q);
  }

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 5;
  std::vector<std::vector<std::vector<UserNeighbor>>> got_nearest(kThreads);
  std::vector<std::vector<std::vector<Entry>>> got_range(kThreads);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      got_nearest[t].resize(queries.size());
      got_range[t].resize(queries.size());
      for (size_t round = 0; round < kRounds; ++round) {
        // Each thread walks the queries from its own offset so the
        // threads land on different pillars at any one moment.
        for (size_t n = 0; n < queries.size(); ++n) {
          const size_t i = (n + t * queries.size() / kThreads) %
                           queries.size();
          got_nearest[t][i] = grid.NearestPerUser(
              queries[i].point, queries[i].k, mod::kInvalidUser, metric);
          got_range[t][i] = Canonical(grid.RangeQuery(queries[i].box));
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string what =
          "thread " + std::to_string(t) + " query " + std::to_string(i);
      ExpectSameNeighbors(got_nearest[t][i], expected_nearest[i], what);
      EXPECT_EQ(got_range[t][i], expected_range[i]) << what;
    }
  }
}

// Exact-distance ties must canonicalize identically in both indexes:
// cross-user ties to the smaller user id, within-user ties to the
// content-minimum (t, x, y) sample — which on a time-sorted column is
// the LOWEST index, the rule the SIMD nearest kernel preserves with its
// in-lane-order rescan.
TEST(ColumnarEquivalence, TieCanonicalization) {
  BruteForceIndex brute;
  GridIndex grid;
  const STMetric metric;
  // Four users on the corners of a square around the query point, each
  // with TWO samples at time-symmetric offsets: every distance ties.
  const STPoint query{{1000.0, 1000.0}, 500};
  for (mod::UserId u = 0; u < 4; ++u) {
    const double dx = (u % 2 == 0) ? -100.0 : 100.0;
    const double dy = (u < 2) ? -100.0 : 100.0;
    const STPoint a{{1000.0 + dx, 1000.0 + dy}, 400};
    const STPoint b{{1000.0 + dx, 1000.0 + dy}, 600};
    brute.Insert(u, a);
    brute.Insert(u, b);
    grid.Insert(u, a);
    grid.Insert(u, b);
  }
  const std::vector<UserNeighbor> expected =
      brute.NearestPerUser(query, 4, mod::kInvalidUser, metric);
  ASSERT_EQ(expected.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    // Cross-user tie: ascending user id.
    EXPECT_EQ(expected[i].user, static_cast<mod::UserId>(i));
    // Within-user tie: the earlier sample.
    EXPECT_EQ(expected[i].sample.t, 400);
  }
  ExpectSameNeighbors(grid.NearestPerUser(query, 4, mod::kInvalidUser, metric),
                      expected, "tie");

  // The same rule at the PHL level: NearestSample keeps the earliest of
  // equidistant samples, matching the linear reference's first-minimum.
  mod::Phl phl;
  ASSERT_TRUE(phl.Append({{900.0, 1000.0}, 400}).ok());
  ASSERT_TRUE(phl.Append({{1100.0, 1000.0}, 600}).ok());
  const auto fast = phl.NearestSample(query, metric);
  const auto slow = phl.NearestSampleLinear(query, metric);
  ASSERT_TRUE(fast.has_value());
  ASSERT_TRUE(slow.has_value());
  EXPECT_EQ(*fast, *slow);
  EXPECT_EQ(fast->t, 400);
}

// The hot/cold boundary: seal a prefix of every user's history into the
// cold tier, mirror the removals into the hot grid (the server's seal
// path), and check the TieredIndexView still answers exactly like a
// brute-force index over the FULL history — queries straddling the
// boundary included.
TEST(ColumnarEquivalence, TieredViewHotColdBoundary) {
  const std::string dir = ::testing::TempDir() + "columnar_tiered";
  ::mkdir(dir.c_str(), 0755);
  mod::ColdTierOptions cold_options;
  cold_options.dir = dir;
  mod::ColdTier cold(cold_options);

  common::Rng rng(21);
  const std::vector<Sample> samples = HotspotWorkload(&rng, 16, 30);

  BruteForceIndex brute;  // full history, never sealed
  GridIndex grid;         // hot tier only
  mod::MovingObjectDb db;
  db.AttachArchive(&cold);
  for (const Sample& s : samples) {
    brute.Insert(s.user, s.point);
    grid.Insert(s.user, s.point);
    ASSERT_TRUE(db.Append(s.user, s.point).ok());
  }

  // Seal everything before the median time, keeping >= 2 hot per user.
  std::vector<int64_t> times;
  for (const Sample& s : samples) times.push_back(s.point.t);
  std::nth_element(times.begin(), times.begin() + times.size() / 2,
                   times.end());
  const int64_t cutoff = times[times.size() / 2];
  std::vector<std::pair<mod::UserId, std::vector<STPoint>>> sealable;
  ASSERT_GT(db.PeekSealable(cutoff, 2, &sealable), 0u);
  ASSERT_TRUE(cold.WriteSegment(0, sealable).ok());
  db.DropSealed(sealable);
  for (const auto& [user, points] : sealable) {
    for (const STPoint& point : points) {
      ASSERT_TRUE(grid.Remove(user, point));
    }
  }
  ASSERT_LT(db.hot_samples(), samples.size());

  TieredIndexView tiered(&grid, &cold, &db);
  ASSERT_EQ(tiered.size(), samples.size());

  const STMetric metric;
  common::Rng qrng(22);
  for (int trial = 0; trial < 25; ++trial) {
    const std::string what = "tiered trial " + std::to_string(trial);
    // Boxes biased to straddle the seal cutoff.
    const double x = qrng.Uniform(300.0, 4200.0);
    const double y = qrng.Uniform(300.0, 4200.0);
    const STBox box{{x - 300.0, y - 300.0, x + 300.0, y + 300.0},
                    {cutoff - qrng.UniformInt(0, 1500),
                     cutoff + qrng.UniformInt(0, 1500)}};
    EXPECT_EQ(Canonical(tiered.RangeQuery(box)),
              Canonical(brute.RangeQuery(box)))
        << what;

    const STPoint query{{qrng.Uniform(300.0, 4200.0),
                         qrng.Uniform(300.0, 4200.0)},
                        cutoff + qrng.UniformInt(-1200, 1200)};
    const size_t k = static_cast<size_t>(qrng.UniformInt(1, 8));
    ExpectSameNeighbors(
        tiered.NearestPerUser(query, k, mod::kInvalidUser, metric),
        brute.NearestPerUser(query, k, mod::kInvalidUser, metric), what);
  }
}

// The kernel entry points agree with a by-hand scan on raw columns —
// the lowest-level contract the index rewrites stand on.  (Cross-build
// SIMD-vs-scalar identity is enforced by running this whole suite under
// -DHISTKANON_SIMD=OFF in CI.)
TEST(ColumnarEquivalence, KernelsMatchScalarScan) {
  common::Rng rng(31);
  const size_t n = 777;  // odd: exercises the vector tail
  std::vector<int64_t> t(n);
  std::vector<double> x(n), y(n);
  int64_t clock = 0;
  for (size_t i = 0; i < n; ++i) {
    clock += rng.UniformInt(1, 30);
    t[i] = clock;
    x[i] = rng.Uniform(0.0, 2000.0);
    y[i] = rng.Uniform(0.0, 2000.0);
  }
  const STMetric metric;
  for (int trial = 0; trial < 20; ++trial) {
    const STPoint q{{rng.Uniform(0.0, 2000.0), rng.Uniform(0.0, 2000.0)},
                    rng.UniformInt(0, clock)};
    // SquaredDistances == STMetric::SquaredDistance, bit for bit.
    std::vector<double> d2(n);
    geo::kernels::SquaredDistances(t.data(), x.data(), y.data(), n, q,
                                   metric.meters_per_second, d2.data());
    geo::kernels::MinResult best = geo::kernels::NearestInWindow(
        t.data(), x.data(), y.data(), n, q, metric.meters_per_second);
    size_t want_i = 0;
    for (size_t i = 0; i < n; ++i) {
      const double want =
          metric.SquaredDistance(STPoint{{x[i], y[i]}, t[i]}, q);
      ASSERT_EQ(d2[i], want) << "i=" << i;
      if (d2[i] < d2[want_i]) want_i = i;  // strict: first minimum wins
    }
    ASSERT_NE(best.index, geo::kernels::MinResult::kNotFound);
    EXPECT_EQ(best.index, want_i);
    EXPECT_EQ(best.d2, d2[want_i]);

    // FilterInBox / AnyInRect == box.Contains on the materialized point.
    const double bx = rng.Uniform(0.0, 1800.0);
    const double by = rng.Uniform(0.0, 1800.0);
    const int64_t bt = rng.UniformInt(0, clock);
    const STBox box{{bx, by, bx + 400.0, by + 400.0}, {bt, bt + 2000}};
    std::vector<uint32_t> idx(n);
    const size_t matched = geo::kernels::FilterInBox(
        t.data(), x.data(), y.data(), n, box, idx.data());
    std::vector<uint32_t> want_idx;
    bool any_rect = false;
    for (size_t i = 0; i < n; ++i) {
      if (box.Contains(STPoint{{x[i], y[i]}, t[i]})) {
        want_idx.push_back(static_cast<uint32_t>(i));
      }
      any_rect = any_rect || box.area.Contains(geo::Point{x[i], y[i]});
    }
    ASSERT_EQ(matched, want_idx.size());
    for (size_t i = 0; i < matched; ++i) EXPECT_EQ(idx[i], want_idx[i]);
    EXPECT_EQ(geo::kernels::AnyInRect(x.data(), y.data(), n, box.area),
              any_rect);
  }
}

// The bound kernels == std::lower_bound / std::upper_bound as indices,
// across lengths on both sides of the bisect-prefix threshold, probe
// values inside and outside the column, and duplicate-heavy content.
TEST(ColumnarEquivalence, BoundKernelsMatchStdBounds) {
  common::Rng rng(67);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{63},
                         size_t{128}, size_t{129}, size_t{1000}}) {
    std::vector<int64_t> t(n);
    int64_t clock = rng.UniformInt(-50, 50);
    for (size_t i = 0; i < n; ++i) {
      clock += rng.UniformInt(0, 3);  // frequent duplicates
      t[i] = clock;
    }
    for (int trial = 0; trial < 200; ++trial) {
      const int64_t v = rng.UniformInt(-100, static_cast<int>(clock) + 100);
      const size_t want_lo = static_cast<size_t>(
          std::lower_bound(t.begin(), t.end(), v) - t.begin());
      const size_t want_hi = static_cast<size_t>(
          std::upper_bound(t.begin(), t.end(), v) - t.begin());
      EXPECT_EQ(geo::kernels::LowerBoundIndex(t.data(), n, v), want_lo)
          << "n=" << n << " v=" << v;
      EXPECT_EQ(geo::kernels::UpperBoundIndex(t.data(), n, v), want_hi)
          << "n=" << n << " v=" << v;
      // The fused window == the two bounds it fuses, for every lo <= hi.
      const int64_t w = v + rng.UniformInt(0, 40);
      size_t lo = 0;
      size_t hi = 0;
      geo::kernels::TimeWindowIndices(t.data(), n, v, w, &lo, &hi);
      EXPECT_EQ(lo, want_lo) << "n=" << n << " v=" << v;
      EXPECT_EQ(hi, static_cast<size_t>(
                        std::upper_bound(t.begin(), t.end(), w) - t.begin()))
          << "n=" << n << " w=" << w;
    }
  }
}

}  // namespace
}  // namespace stindex
}  // namespace histkanon
