// Uniform grid over (x, y) pillars of time-sorted sample columns, with
// expanding-shell nearest-neighbour search.  The workhorse index for
// Algorithm 1 on realistic densities.
//
// Columnar layout (DESIGN.md §17): samples sharing a spatial cell live in
// one PILLAR — four parallel columns t/x/y/user whose prefix is sorted by
// time, plus a small unsorted delta tail that absorbs inserts and is
// merged back when it overflows.  A nearest scan that used to probe one
// hash cell per (x, y, t) lattice point now probes one pillar per (x, y)
// ring cell, bisects the time window the current k-th bound allows, and
// hands the run to the flat geometry kernels (src/geo/kernels.h).
// Answers are identical: the per-user tie rule (SampleContentLess) and
// the strict ring-termination bound already make the result a pure
// function of the indexed content, independent of scan order.

#ifndef HISTKANON_SRC_STINDEX_GRID_INDEX_H_
#define HISTKANON_SRC_STINDEX_GRID_INDEX_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/stindex/index.h"

namespace histkanon {
namespace stindex {

/// \brief Tuning knobs for GridIndex.
struct GridIndexOptions {
  /// Spatial cell edge (meters).
  double cell_meters = 250.0;
  /// Temporal cell extent (seconds).
  double cell_seconds = 600.0;
  /// Optional metrics (not owned, must outlive the index); nullptr
  /// disables all observation.
  obs::Registry* registry = nullptr;
};

/// \brief Pillar-grid index: each sample lives in the time-sorted column
/// of its spatial cell; nearest-per-user queries expand square rings of
/// pillars outward from the query — scanning each pillar's bound-clipped
/// time run through the distance kernel — until the k-th best distance
/// is provably final.
class GridIndex : public SpatioTemporalIndex {
 public:
  explicit GridIndex(GridIndexOptions options = GridIndexOptions());

  const std::string& name() const override { return name_; }
  void Insert(mod::UserId user, const geo::STPoint& sample) override;

  /// Removes one (user, sample) entry; false if absent.  Used by the seal
  /// protocol to drop archived samples from the hot index.  The lattice
  /// bounding box is NOT re-tightened (stale bounds only widen iteration
  /// clipping, never change answers).
  bool Remove(mod::UserId user, const geo::STPoint& sample);

  size_t size() const override { return size_; }
  uint64_t epoch() const override { return epoch_; }
  std::vector<Entry> RangeQuery(const geo::STBox& box) const override;
  std::vector<UserNeighbor> NearestPerUser(
      const geo::STPoint& query, size_t k, mod::UserId exclude,
      const geo::STMetric& metric) const override;

  /// Opaque id of the lattice cell containing `sample` — a pure function
  /// of the point and the cell extents.  The batch engine sorts a window
  /// of requests by this id so co-located requests run back to back and
  /// share the generalizer's per-epoch candidate cache.
  uint64_t CellIdOf(const geo::STPoint& sample) const {
    return static_cast<uint64_t>(CellKeyHash()(CellOf(sample)));
  }

 private:
  struct CellKey {
    int64_t x = 0;
    int64_t y = 0;
    int64_t t = 0;

    friend bool operator==(const CellKey& a, const CellKey& b) {
      return a.x == b.x && a.y == b.y && a.t == b.t;
    }
  };

  struct CellKeyHash {
    size_t operator()(const CellKey& key) const {
      // splitmix-style mixing of the three lattice coordinates.
      uint64_t h = static_cast<uint64_t>(key.x) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(key.y) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= static_cast<uint64_t>(key.t) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      return static_cast<size_t>(h ^ (h >> 31));
    }
  };

  /// \brief One spatial cell's samples as parallel columns.  The prefix
  /// [0, sorted) is ascending in t; [sorted, t.size()) is the unsorted
  /// delta tail, merged back by MergeDelta when it overflows.
  struct Pillar {
    std::vector<int64_t> t;
    std::vector<double> x;
    std::vector<double> y;
    std::vector<mod::UserId> user;
    size_t sorted = 0;

    size_t size() const { return t.size(); }
  };

  /// \brief Open-addressing pillar map: power-of-2 capacity, linear
  /// probing, load kept under 1/2.  A probe is one predictable slot load
  /// where the node-based map paid a bucket load plus a pointer chase —
  /// the pillar lookup is on every query's critical path.  Pillars are
  /// stored by value and only move on growth, so within a query (no
  /// inserts) Pillar pointers are stable.  There is no erase: a pillar
  /// emptied by Remove stays as a vacant husk, which every scan already
  /// skips — tombstone bookkeeping would buy nothing.
  class PillarTable {
   public:
    PillarTable() : slots_(kMinSlots), mask_(kMinSlots - 1) {}

    const Pillar* Find(int64_t x, int64_t y) const {
      for (size_t i = Hash(x, y) & mask_;; i = (i + 1) & mask_) {
        const Slot& slot = slots_[i];
        if (!slot.used) return nullptr;
        if (slot.x == x && slot.y == y) return &slot.pillar;
      }
    }

    Pillar* Find(int64_t x, int64_t y) {
      return const_cast<Pillar*>(std::as_const(*this).Find(x, y));
    }

    Pillar* FindOrInsert(int64_t x, int64_t y) {
      if ((used_ + 1) * 2 > slots_.size()) Grow();
      for (size_t i = Hash(x, y) & mask_;; i = (i + 1) & mask_) {
        Slot& slot = slots_[i];
        if (!slot.used) {
          slot.used = true;
          slot.x = x;
          slot.y = y;
          ++used_;
          return &slot.pillar;
        }
        if (slot.x == x && slot.y == y) return &slot.pillar;
      }
    }

   private:
    struct Slot {
      int64_t x = 0;
      int64_t y = 0;
      bool used = false;
      Pillar pillar;
    };

    static size_t Hash(int64_t x, int64_t y) {
      uint64_t h = static_cast<uint64_t>(x) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(y) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
      h *= 0xbf58476d1ce4e5b9ULL;
      return static_cast<size_t>(h ^ (h >> 31));
    }

    void Grow() {
      std::vector<Slot> old = std::move(slots_);
      slots_.assign(old.size() * 2, Slot{});
      mask_ = slots_.size() - 1;
      for (Slot& slot : old) {
        if (!slot.used) continue;
        size_t i = Hash(slot.x, slot.y) & mask_;
        while (slots_[i].used) i = (i + 1) & mask_;
        slots_[i] = std::move(slot);
      }
    }

    static constexpr size_t kMinSlots = 64;
    std::vector<Slot> slots_;
    size_t mask_ = 0;
    size_t used_ = 0;
  };

  CellKey CellOf(const geo::STPoint& sample) const;

  /// Sorts the delta tail and merges it into the sorted prefix (O(n)).
  static void MergeDelta(Pillar* pillar);

  std::string name_ = "grid";
  GridIndexOptions options_;
  // Pre-resolved metric handles (nullptr without a registry).
  obs::Counter* inserts_ = nullptr;
  obs::Counter* range_queries_ = nullptr;
  obs::Counter* nearest_queries_ = nullptr;
  obs::Histogram* nearest_shells_ = nullptr;
  // Queries never write here: a pillar's delta tail is folded in on the
  // write side (Insert), so concurrent const reads — the sharded
  // serve phase, DESIGN.md §13 — are race-free.  Per-query scratch is
  // thread-local in grid_index.cc for the same reason.
  PillarTable pillars_;
  size_t size_ = 0;
  /// Bumped on every Insert (the MOD-ingest invalidation ticket).
  uint64_t epoch_ = 0;
  // Bounding lattice range of inserted data (valid when size_ > 0).
  CellKey min_cell_;
  CellKey max_cell_;
};

}  // namespace stindex
}  // namespace histkanon

#endif  // HISTKANON_SRC_STINDEX_GRID_INDEX_H_
