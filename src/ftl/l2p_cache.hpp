// The volatile L2P cache (paper §III-C).
//
// Consumer-grade storage has only a few KiB of SRAM for L2P caching, so
// each cached entry is precious. An entry maps a *logical unit* at one of
// three granularities — page (LPA), chunk (LCA), zone (LZA) — to the
// physical slot of the unit's first 4 KiB page; lookups probe the three
// granularities coarse-to-fine, and a hit computes the final PPA by
// adding the offset of the original LPA inside the unit.
//
// Organization: entries are found through a per-granularity index (the
// emulator's stand-in for the paper's bucketed search) and evicted along
// a global LRU chain. Entries inserted as *pinned* (the §IV-D PINNED
// design) are exempt from eviction; when an aggregated entry is
// generated, the finer-granularity entries it covers are evicted to
// reclaim capacity.
//
// Storage: entries live in a flat slot array sized to the configured
// capacity, threaded on a circular LRU chain of slot ids kept in a
// parallel array (the head is the most recent entry; its prev is the
// least recent). The index is direct, not hashed: per granularity, a
// directory keyed by `index >> 12` names a leaf of 4096 slot ids, and a
// leaf is allocated on the first insert into its range, so index memory
// follows the key range in use rather than the device size. A probe is
// a directory load and a leaf load; each slot remembers its index cell,
// so removing an entry is one store. Apart from a new leaf, nothing
// allocates after construction — this sits on the per-IO hot path of
// every read.
//
// Prefetch runs (Legacy's sequential prefetch, §IV-C) are installed by
// InsertPageRun. Evicting the least recent entry and re-inserting into
// its slot as the most recent one only moves the circular chain's head,
// so a run that replaces the LRU tail rewrites no chain link: the
// victims' chain segment becomes the run's, in order.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/fastdiv.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "ftl/mapping.hpp"

namespace conzone {

/// Identity of a cached translation: granularity + index of the logical
/// unit (lpn / units-per-granularity).
struct L2pKey {
  MapGranularity gran = MapGranularity::kPage;
  std::uint64_t index = 0;

  std::uint64_t Encoded() const { return (index << 2) | static_cast<std::uint64_t>(gran); }
  friend bool operator==(const L2pKey&, const L2pKey&) = default;
};

struct L2pCacheConfig {
  std::uint64_t capacity_bytes = 12 * kKiB;  ///< §IV-A scaled-down budget.
  std::uint32_t entry_bytes = 4;             ///< §IV-D packed-entry figure.
  std::uint32_t lpns_per_chunk = 1024;
  std::uint32_t lpns_per_zone = 4096;

  std::uint64_t MaxEntries() const {
    return entry_bytes ? capacity_bytes / entry_bytes : 0;
  }
};

struct L2pCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_insertions = 0;  ///< Cache full of pinned entries.

  double HitRate() const {
    return lookups ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
  }
  double MissRate() const { return lookups ? 1.0 - HitRate() : 0.0; }
};

class L2PCache {
 public:
  explicit L2PCache(const L2pCacheConfig& config);

  /// Probe one granularity level. A hit refreshes LRU recency and returns
  /// the base PPA of the logical unit.
  std::optional<Ppn> Lookup(const L2pKey& key);

  /// Probe without touching recency or statistics (diagnostics).
  std::optional<Ppn> Peek(const L2pKey& key) const;

  /// Insert (or refresh) a translation. Evicts the LRU unpinned entry
  /// when full; if every resident entry is pinned the insertion of an
  /// unpinned entry is dropped.
  void Insert(const L2pKey& key, Ppn base_ppn, bool pinned = false);

  /// Insert the unpinned page entries first_lpn, first_lpn+1, ... with
  /// base PPNs `ppns`, in order. The resulting state and stats are
  /// exactly those of one Insert(page key, ppn, false) per entry: a
  /// resident key is refreshed (and unpinned), a resident key evicted
  /// earlier in the run comes back as a new insertion, and pinned
  /// entries are skipped when picking victims.
  void InsertPageRun(Lpn first_lpn, std::span<const Ppn> ppns);

  void Erase(const L2pKey& key);

  /// Evict all finer-granularity entries whose range is covered by the
  /// aggregate `key` (PINNED design: the aggregate supersedes them).
  void EvictCoveredBy(const L2pKey& key);

  /// Remove every entry overlapping the LPA range [start, start+count) —
  /// used on zone reset and on remapping (fold-back, GC migration).
  void InvalidateLpnRange(Lpn start, std::uint64_t count);

  std::size_t size() const { return size_; }
  std::uint64_t max_entries() const { return max_entries_; }
  std::size_t pinned_count() const { return pinned_count_; }
  const L2pCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = L2pCacheStats{}; }

  /// LPAs covered by one unit at granularity `g`.
  std::uint64_t UnitLpns(MapGranularity g) const;
  /// Key of the unit containing `lpn` at granularity `g`.
  L2pKey KeyFor(MapGranularity g, Lpn lpn) const;

  /// Visit every resident entry as fn(key, base_ppn, pinned), most
  /// recently used first — the reverse of eviction order (diagnostics).
  template <typename Fn>
  void ForEachMostRecentFirst(Fn&& fn) const {
    std::uint32_t s = lru_head_;
    for (std::size_t n = size_; n > 0; --n, s = links_[s].next) {
      fn(L2pKey{static_cast<MapGranularity>(slots_[s].key & 3), slots_[s].key >> 2},
         slots_[s].base_ppn, slots_[s].pinned);
    }
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Slot {
    std::uint64_t key = 0;  // encoded L2pKey
    Ppn base_ppn;
    std::uint32_t cell = 0;  // the key's index cell: leaf << kLeafBits | offset
    bool pinned = false;
  };
  /// A slot's place on the circular LRU chain. Kept apart from the
  /// slots so that walking the chain touches 8 bytes per entry.
  struct Link {
    std::uint32_t prev = kNil;  // more recent neighbour; the head's is the LRU entry
    std::uint32_t next = kNil;  // less recent neighbour; the LRU entry's is the head
  };

  static constexpr unsigned kLeafBits = 12;
  static constexpr std::uint64_t kLeafSize = 1ull << kLeafBits;
  static constexpr std::uint64_t kLeafMask = kLeafSize - 1;

  /// Slot holding `key`, or kNil.
  std::uint32_t Find(const L2pKey& key) const;
  /// Index cell of `key` (leaf << kLeafBits | offset), allocating its
  /// leaf on first use.
  std::uint32_t CellFor(const L2pKey& key);
  std::uint32_t& Cell(std::uint32_t cell) {
    return leaves_[cell >> kLeafBits][cell & kLeafMask];
  }

  /// One Insert, with the key's index cell already located.
  void Install(std::uint32_t cell, const L2pKey& key, Ppn base_ppn, bool pinned);

  void LruUnlink(std::uint32_t slot);
  void LruPushFront(std::uint32_t slot);
  void LruMoveToFront(std::uint32_t slot);
  /// The least recently used unpinned entry, or kNil.
  std::uint32_t LruVictim() const;

  L2pCacheConfig cfg_;
  std::uint64_t max_entries_;
  // Reciprocals for KeyFor — probed up to three times per read IO.
  FastDiv div_lpns_per_chunk_;
  FastDiv div_lpns_per_zone_;
  std::vector<Slot> slots_;             // flat entry storage
  std::vector<Link> links_;             // LRU chain, indexed like slots_
  std::vector<std::uint32_t> free_slots_;
  // Direct index: dir_[gran][index >> kLeafBits] is a leaf number (or
  // kNil); leaves_[leaf] holds kLeafSize slot ids (kNil = absent). Leaves
  // are allocated one by one and never move.
  std::vector<std::uint32_t> dir_[3];
  std::vector<std::unique_ptr<std::uint32_t[]>> leaves_;
  std::uint32_t lru_head_ = kNil;       // most recently used; its prev is the LRU
  std::size_t size_ = 0;
  std::size_t pinned_count_ = 0;
  L2pCacheStats stats_;
};

}  // namespace conzone
