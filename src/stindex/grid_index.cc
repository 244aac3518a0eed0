#include "src/stindex/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/geo/kernels.h"

namespace histkanon {
namespace stindex {

namespace {

int64_t FloorToCell(double value, double extent) {
  return static_cast<int64_t>(std::floor(value / extent));
}

/// The delta tail's constant floor: how many samples it may hold in a
/// small pillar, and how far a late sample may be shifted into a
/// tailless pillar instead of starting a tail.
constexpr size_t kTailFloor = 64;

/// How large the delta tail may grow before MergeDelta folds it in:
/// constant floor for small pillars, a fraction of the sorted prefix for
/// hotspot pillars so merge cost stays amortized O(1) per insert.
/// Queries scan the tail as-is — the flat kernels do not need sorted
/// input, and a superset scan never changes an answer — so the bound
/// also keeps that unclipped scan a small share of the pillar.
size_t DeltaCapacity(size_t sorted) {
  return std::max(kTailFloor, sorted / 8);
}

/// Reusable per-thread NearestPerUser / RangeQuery scratch.  Thread-local
/// rather than index-owned so const reads from many shard workers never
/// share it; a query leaves no observable state here.  The best-per-user
/// table is generation-stamped: bumping `best_gen` invalidates every slot
/// in O(1), so a query pays neither an allocation nor a table-wide clear,
/// and the table keeps its high-water capacity.
struct BestSlot {
  mod::UserId user = 0;
  uint32_t gen = 0;  // slot is live iff gen == best_gen
  UserNeighbor neighbor;  // distance = squared while searching
};

struct QueryScratch {
  std::vector<BestSlot> best_slots;
  uint32_t best_gen = 0;
  std::vector<std::pair<double, mod::UserId>> topk;
  std::vector<double> d2;
  std::vector<uint32_t> matched;
};

QueryScratch& ThreadScratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

}  // namespace

GridIndex::GridIndex(GridIndexOptions options) : options_(options) {
  if (options_.registry != nullptr) {
    inserts_ = options_.registry->GetCounter("stindex_grid_inserts_total");
    range_queries_ =
        options_.registry->GetCounter("stindex_grid_range_queries_total");
    nearest_queries_ =
        options_.registry->GetCounter("stindex_grid_nearest_queries_total");
    // Chebyshev shells explored per nearest-per-user query: the direct
    // cost driver of Algorithm 1's anchor selection.
    nearest_shells_ = options_.registry->GetHistogram(
        "stindex_grid_nearest_shells",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
  }
}

GridIndex::CellKey GridIndex::CellOf(const geo::STPoint& sample) const {
  return CellKey{FloorToCell(sample.p.x, options_.cell_meters),
                 FloorToCell(sample.p.y, options_.cell_meters),
                 FloorToCell(static_cast<double>(sample.t),
                             options_.cell_seconds)};
}

void GridIndex::MergeDelta(Pillar* pillar) {
  const size_t n = pillar->size();
  if (pillar->sorted == n) return;
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  const auto by_t = [&](size_t a, size_t b) {
    return pillar->t[a] < pillar->t[b];
  };
  std::stable_sort(perm.begin() + static_cast<ptrdiff_t>(pillar->sorted),
                   perm.end(), by_t);
  std::inplace_merge(perm.begin(),
                     perm.begin() + static_cast<ptrdiff_t>(pillar->sorted),
                     perm.end(), by_t);
  Pillar merged;
  merged.t.reserve(n);
  merged.x.reserve(n);
  merged.y.reserve(n);
  merged.user.reserve(n);
  for (const size_t i : perm) {
    merged.t.push_back(pillar->t[i]);
    merged.x.push_back(pillar->x[i]);
    merged.y.push_back(pillar->y[i]);
    merged.user.push_back(pillar->user[i]);
  }
  merged.sorted = n;
  *pillar = std::move(merged);
}

void GridIndex::Insert(mod::UserId user, const geo::STPoint& sample) {
  if (inserts_ != nullptr) inserts_->Increment();
  const CellKey key = CellOf(sample);
  Pillar& pillar = *pillars_.FindOrInsert(key.x, key.y);
  // A tailless pillar takes the sample at its time slot, so queries keep
  // clipping all of it: at the end for in-order arrival (the common
  // live-ingest case), or, for a late sample with at most kTailFloor
  // entries after its slot, shifted into place.  Anything else joins
  // the delta tail — including in-order samples once a tail exists, so
  // no insert moves more than kTailFloor entries.
  const bool tailless = pillar.sorted == pillar.size();
  size_t at = pillar.size();
  if (tailless && at > 0 && sample.t < pillar.t[at - 1]) {
    at = static_cast<size_t>(
        std::upper_bound(pillar.t.begin(), pillar.t.end(), sample.t) -
        pillar.t.begin());
  }
  pillar.t.push_back(sample.t);
  pillar.x.push_back(sample.p.x);
  pillar.y.push_back(sample.p.y);
  pillar.user.push_back(user);
  if (tailless && pillar.sorted - at <= kTailFloor) {
    for (size_t i = pillar.sorted; i > at; --i) {
      pillar.t[i] = pillar.t[i - 1];
      pillar.x[i] = pillar.x[i - 1];
      pillar.y[i] = pillar.y[i - 1];
      pillar.user[i] = pillar.user[i - 1];
    }
    pillar.t[at] = sample.t;
    pillar.x[at] = sample.p.x;
    pillar.y[at] = sample.p.y;
    pillar.user[at] = user;
    ++pillar.sorted;
  } else if (pillar.size() - pillar.sorted > DeltaCapacity(pillar.sorted)) {
    MergeDelta(&pillar);
  }
  if (size_ == 0) {
    min_cell_ = max_cell_ = key;
  } else {
    min_cell_.x = std::min(min_cell_.x, key.x);
    min_cell_.y = std::min(min_cell_.y, key.y);
    min_cell_.t = std::min(min_cell_.t, key.t);
    max_cell_.x = std::max(max_cell_.x, key.x);
    max_cell_.y = std::max(max_cell_.y, key.y);
    max_cell_.t = std::max(max_cell_.t, key.t);
  }
  ++size_;
  ++epoch_;
}

bool GridIndex::Remove(mod::UserId user, const geo::STPoint& sample) {
  const CellKey key = CellOf(sample);
  Pillar* slot = pillars_.Find(key.x, key.y);
  if (slot == nullptr) return false;
  Pillar& pillar = *slot;
  size_t found = pillar.size();
  // The sorted prefix narrows to the equal-t run; the tail is scanned
  // linearly.
  const auto t_begin = pillar.t.begin();
  const auto t_sorted_end = t_begin + static_cast<ptrdiff_t>(pillar.sorted);
  for (auto t_it = std::lower_bound(t_begin, t_sorted_end, sample.t);
       t_it != t_sorted_end && *t_it == sample.t; ++t_it) {
    const size_t i = static_cast<size_t>(t_it - t_begin);
    if (pillar.user[i] == user && pillar.x[i] == sample.p.x &&
        pillar.y[i] == sample.p.y) {
      found = i;
      break;
    }
  }
  if (found == pillar.size()) {
    for (size_t i = pillar.sorted; i < pillar.size(); ++i) {
      if (pillar.t[i] == sample.t && pillar.user[i] == user &&
          pillar.x[i] == sample.p.x && pillar.y[i] == sample.p.y) {
        found = i;
        break;
      }
    }
  }
  if (found == pillar.size()) return false;
  pillar.t.erase(pillar.t.begin() + static_cast<ptrdiff_t>(found));
  pillar.x.erase(pillar.x.begin() + static_cast<ptrdiff_t>(found));
  pillar.y.erase(pillar.y.begin() + static_cast<ptrdiff_t>(found));
  pillar.user.erase(pillar.user.begin() + static_cast<ptrdiff_t>(found));
  if (found < pillar.sorted) --pillar.sorted;
  --size_;
  ++epoch_;
  return true;
}

std::vector<Entry> GridIndex::RangeQuery(const geo::STBox& box) const {
  if (range_queries_ != nullptr) range_queries_->Increment();
  std::vector<Entry> hits;
  if (box.IsEmpty() || size_ == 0) return hits;
  hits.reserve(8);
  const int64_t x0 = FloorToCell(box.area.min_x, options_.cell_meters);
  const int64_t x1 = FloorToCell(box.area.max_x, options_.cell_meters);
  const int64_t y0 = FloorToCell(box.area.min_y, options_.cell_meters);
  const int64_t y1 = FloorToCell(box.area.max_y, options_.cell_meters);
  // Reused across this thread's queries so a query pays no per-pillar
  // allocation for the match-index staging buffer.
  std::vector<uint32_t>& matched = ThreadScratch().matched;
  for (int64_t x = std::max(x0, min_cell_.x); x <= std::min(x1, max_cell_.x);
       ++x) {
    for (int64_t y = std::max(y0, min_cell_.y);
         y <= std::min(y1, max_cell_.y); ++y) {
      const Pillar* found = pillars_.Find(x, y);
      if (found == nullptr) continue;
      const Pillar& pillar = *found;
      const auto filter_range = [&](size_t lo, size_t count) {
        if (count == 0) return;
        if (matched.size() < count) matched.resize(count);
        const size_t n = geo::kernels::FilterInBox(
            pillar.t.data() + lo, pillar.x.data() + lo, pillar.y.data() + lo,
            count, box, matched.data());
        for (size_t m = 0; m < n; ++m) {
          const size_t i = lo + matched[m];
          hits.push_back(Entry{
              pillar.user[i],
              geo::STPoint{{pillar.x[i], pillar.y[i]}, pillar.t[i]}});
        }
      };
      // Bisect the box's raw time window over the sorted prefix, then
      // the flat containment kernel over the run; the unsorted tail (if
      // any) cannot be bisected and goes straight through the kernel,
      // which checks the time bounds itself.
      size_t lo = 0;
      size_t hi = 0;
      geo::kernels::TimeWindowIndices(pillar.t.data(), pillar.sorted,
                                      box.time.lo, box.time.hi, &lo, &hi);
      filter_range(lo, hi - lo);
      filter_range(pillar.sorted, pillar.size() - pillar.sorted);
    }
  }
  return hits;
}

std::vector<UserNeighbor> GridIndex::NearestPerUser(
    const geo::STPoint& query, size_t k, mod::UserId exclude,
    const geo::STMetric& metric) const {
  if (nearest_queries_ != nullptr) nearest_queries_->Increment();
  std::vector<UserNeighbor> result;
  if (size_ == 0 || k == 0) return result;

  const double cell = options_.cell_meters;
  const double mps = metric.meters_per_second;

  // Per-user best samples in the thread's generation-stamped scratch
  // table (linear probing, power-of-2 capacity): `consider` is the
  // innermost operation of the whole search, and a node-based map would
  // pay an allocation and a pointer chase per discovered user.  Bumping
  // the generation invalidates the previous query's entries without
  // touching them, so a query pays neither an allocation nor a
  // table-wide clear.
  QueryScratch& scratch = ThreadScratch();
  std::vector<BestSlot>& best_slots = scratch.best_slots;
  std::vector<double>& d2_scratch = scratch.d2;
  if (best_slots.empty()) best_slots.assign(128, BestSlot{});
  if (++scratch.best_gen == 0) {
    // uint32 wrap: stamp everything dead once, then restart at 1.
    for (BestSlot& slot : best_slots) slot.gen = 0;
    scratch.best_gen = 1;
  }
  const uint32_t gen = scratch.best_gen;
  const auto user_hash = [](mod::UserId user) -> size_t {
    return static_cast<size_t>(
        (static_cast<uint64_t>(user) * 0x9e3779b97f4a7c15ULL) >> 32);
  };
  size_t best_mask = best_slots.size() - 1;
  size_t best_used = 0;
  const auto best_find = [&](mod::UserId user) -> BestSlot* {
    for (size_t i = user_hash(user) & best_mask;; i = (i + 1) & best_mask) {
      BestSlot& slot = best_slots[i];
      if (slot.gen != gen || slot.user == user) return &slot;
    }
  };
  const auto best_grow = [&]() {
    std::vector<BestSlot> old = std::move(best_slots);
    best_slots.assign(old.size() * 2, BestSlot{});
    best_mask = best_slots.size() - 1;
    for (BestSlot& slot : old) {
      if (slot.gen != gen) continue;
      size_t i = user_hash(slot.user) & best_mask;
      while (best_slots[i].gen == gen) i = (i + 1) & best_mask;
      best_slots[i] = slot;
    }
  };

  // The k smallest per-user best squared distances, ascending — the
  // incrementally maintained pruning bound (mirrored into `bound_d2`).
  // All O(k) per update, never an O(users) nth_element on the hot path.
  // Invariant: every user NOT in `topk` has a best no smaller than
  // topk.back() — eviction only replaces the maximum with something
  // smaller, and a tracked user's value only decreases in place, so the
  // invariant survives every update.
  std::vector<std::pair<double, mod::UserId>>& topk = scratch.topk;
  topk.clear();
  topk.reserve(k);
  double bound_d2 = std::numeric_limits<double>::infinity();
  const auto topk_update = [&](mod::UserId user, double d2) {
    for (size_t i = 0; i < topk.size(); ++i) {
      if (topk[i].second != user) continue;
      topk[i].first = d2;
      while (i > 0 && topk[i - 1].first > topk[i].first) {
        std::swap(topk[i - 1], topk[i]);
        --i;
      }
      if (topk.size() == k) bound_d2 = topk.back().first;
      return;
    }
    if (topk.size() == k && d2 >= topk.back().first) return;
    if (topk.size() == k) topk.pop_back();
    topk.emplace_back(d2, user);
    for (size_t i = topk.size() - 1;
         i > 0 && topk[i - 1].first > topk[i].first; --i) {
      std::swap(topk[i - 1], topk[i]);
    }
    if (topk.size() == k) bound_d2 = topk.back().first;
  };

  const auto consider = [&](mod::UserId user, double d2,
                            const geo::STPoint& sample) {
    BestSlot* slot = best_find(user);
    if (slot->gen != gen) {
      slot->gen = gen;
      slot->user = user;
      slot->neighbor = UserNeighbor{user, sample, d2};
      topk_update(user, d2);
      if (++best_used * 2 > best_slots.size()) best_grow();
    } else if (d2 < slot->neighbor.distance) {
      slot->neighbor.sample = sample;
      slot->neighbor.distance = d2;
      topk_update(user, d2);
    } else if (d2 == slot->neighbor.distance &&
               SampleContentLess(sample, slot->neighbor.sample)) {
      // Equal-distance ties go to the content-smaller sample so the
      // per-user representative never depends on scan order.
      slot->neighbor.sample = sample;
    }
  };

  // Spatial squared distance from the query to cell (x, y)'s bounding
  // square, padded down so floating rounding in FloorToCell can never
  // make it exceed a contained sample's true distance.
  const auto cell_min_d2 = [&](int64_t x, int64_t y) -> double {
    const double lo_x = static_cast<double>(x) * cell;
    const double lo_y = static_cast<double>(y) * cell;
    double dx = 0.0;
    if (query.p.x < lo_x) dx = lo_x - query.p.x;
    if (query.p.x > lo_x + cell) dx = query.p.x - (lo_x + cell);
    double dy = 0.0;
    if (query.p.y < lo_y) dy = lo_y - query.p.y;
    if (query.p.y > lo_y + cell) dy = query.p.y - (lo_y + cell);
    const double d2 = dx * dx + dy * dy;
    const double padded = d2 - (d2 * 1e-12 + 1e-9);
    return padded > 0.0 ? padded : 0.0;
  };

  // Pillars are ACTIVATED in concentric square rings around the query's
  // cell — O(1) arithmetic per cell, no per-cell priority queue — and
  // rings stop once even the ring's inner edge is provably past the
  // k-th best distance.  An activated pillar is scanned over ONE
  // bound-clipped time window: a sample outside
  // |t - query.t| <= sqrt(bound - spatial) / mps has a time part ALONE
  // strictly above the bound, so it can neither enter the result nor
  // tie, and because the bound only tightens, a window computed from
  // the bound at activation time is a superset of the final legal
  // window — clipped-away work is never owed later.  Comparisons
  // against the bound are STRICT throughout: samples exactly tying the
  // k-th best must be seen for the result to stay a pure function of
  // the indexed content (the canonical-answer property
  // SampleContentLess documents).
  int64_t cells_probed = 0;
  const auto activate = [&](int64_t x, int64_t y) {
    const double spatial = cell_min_d2(x, y);
    if (spatial > bound_d2) return;  // arithmetic-only prune, no probe
    ++cells_probed;
    const Pillar* pillar = pillars_.Find(x, y);
    if (pillar == nullptr) return;
    const auto scan_range = [&](size_t lo, size_t count) {
      if (count == 0) return;
      if (d2_scratch.size() < count) d2_scratch.resize(count);
      geo::kernels::SquaredDistances(pillar->t.data() + lo,
                                     pillar->x.data() + lo,
                                     pillar->y.data() + lo, count, query, mps,
                                     d2_scratch.data());
      for (size_t j = 0; j < count; ++j) {
        const double d2 = d2_scratch[j];
        if (d2 > bound_d2) continue;  // strict: ties must pass
        const mod::UserId user = pillar->user[lo + j];
        if (user == exclude) continue;
        consider(user, d2,
                 geo::STPoint{{pillar->x[lo + j], pillar->y[lo + j]},
                              pillar->t[lo + j]});
      }
    };
    const size_t sorted = pillar->sorted;
    if (sorted > 0) {
      size_t lo = 0;
      size_t hi = sorted;
      // Conservative half-width: inflate for sqrt/divide rounding, plus
      // one extra second for the int64 -> double conversion of the time
      // delta.  Overscan is a harmless superset scan; underscan is not.
      const double half = std::sqrt(bound_d2 - spatial) / mps * (1.0 + 1e-9) +
                          1.0;
      if (std::isfinite(half) && half < 9.0e18) {
        const int64_t w = static_cast<int64_t>(half);
        int64_t lo_t = 0;
        int64_t hi_t = 0;
        if (__builtin_sub_overflow(query.t, w, &lo_t)) {
          lo_t = std::numeric_limits<int64_t>::min();
        }
        if (__builtin_add_overflow(query.t, w, &hi_t)) {
          hi_t = std::numeric_limits<int64_t>::max();
        }
        geo::kernels::TimeWindowIndices(pillar->t.data(), sorted, lo_t, hi_t,
                                        &lo, &hi);
      }
      scan_range(lo, hi - lo);
    }
    scan_range(sorted, pillar->size() - sorted);
  };

  // Start from the query's cell clamped into the data's lattice bounds:
  // a cell at Chebyshev lattice distance r from the start then sits at
  // spatial distance >= (r - 1) * cell_meters from the query, whether
  // the query is inside the lattice or beyond its edge.
  const int64_t start_x =
      std::clamp(FloorToCell(query.p.x, cell), min_cell_.x, max_cell_.x);
  const int64_t start_y =
      std::clamp(FloorToCell(query.p.y, cell), min_cell_.y, max_cell_.y);
  // The last ring with any in-bounds cell.
  const int64_t cover =
      std::max(std::max(start_x - min_cell_.x, max_cell_.x - start_x),
               std::max(start_y - min_cell_.y, max_cell_.y - start_y));

  for (int64_t r = 0; r <= cover; ++r) {
    if (r > 0) {
      const double ring_min = static_cast<double>(r - 1) * cell;
      if (ring_min * ring_min > bound_d2) break;
    }
    if (r == 0) {
      activate(start_x, start_y);
    } else {
      const int64_t x0 = start_x - r;
      const int64_t x1 = start_x + r;
      const int64_t y0 = start_y - r;
      const int64_t y1 = start_y + r;
      const int64_t xa = std::max(x0, min_cell_.x);
      const int64_t xb = std::min(x1, max_cell_.x);
      if (y0 >= min_cell_.y) {
        for (int64_t x = xa; x <= xb; ++x) activate(x, y0);
      }
      if (y1 <= max_cell_.y) {
        for (int64_t x = xa; x <= xb; ++x) activate(x, y1);
      }
      const int64_t ya = std::max(y0 + 1, min_cell_.y);
      const int64_t yb = std::min(y1 - 1, max_cell_.y);
      if (x0 >= min_cell_.x) {
        for (int64_t y = ya; y <= yb; ++y) activate(x0, y);
      }
      if (x1 <= max_cell_.x) {
        for (int64_t y = ya; y <= yb; ++y) activate(x1, y);
      }
    }
  }

  if (nearest_shells_ != nullptr) {
    nearest_shells_->Observe(static_cast<double>(cells_probed));
  }
  result.reserve(best_used);
  for (const BestSlot& slot : best_slots) {
    if (slot.gen == gen) result.push_back(slot.neighbor);
  }
  const auto by_distance = [](const UserNeighbor& a, const UserNeighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.user < b.user;
  };
  if (result.size() > k) {
    // Only the k nearest leave the function: partial ordering is enough.
    std::partial_sort(result.begin(),
                      result.begin() + static_cast<ptrdiff_t>(k),
                      result.end(), by_distance);
    result.resize(k);
  } else {
    std::sort(result.begin(), result.end(), by_distance);
  }
  for (UserNeighbor& neighbor : result) {
    neighbor.distance = std::sqrt(neighbor.distance);
  }
  return result;
}

}  // namespace stindex
}  // namespace histkanon
