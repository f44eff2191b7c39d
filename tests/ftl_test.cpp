// Unit tests for the FTL: mapping table (map bits), L2P cache (index,
// LRU, pinning, prefetch runs checked against a per-entry reference) and
// the translator's three search strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "ftl/l2p_cache.hpp"
#include "ftl/mapping.hpp"
#include "ftl/translator.hpp"

namespace conzone {
namespace {

MappingGeometry SmallMapGeo() {
  MappingGeometry g;
  g.num_lpns = 16384;       // 4 zones of 4096
  g.lpns_per_chunk = 1024;  // 4 chunks per zone
  g.lpns_per_zone = 4096;
  g.entries_per_map_page = 4096;
  return g;
}

L2pCacheConfig SmallCacheCfg(std::uint64_t entries = 8) {
  L2pCacheConfig c;
  c.capacity_bytes = entries * 4;
  c.entry_bytes = 4;
  c.lpns_per_chunk = 1024;
  c.lpns_per_zone = 4096;
  return c;
}

// --- mapping table ---

TEST(MappingTableTest, SetGetUnmap) {
  MappingTable t(SmallMapGeo());
  EXPECT_FALSE(t.Get(Lpn{5}).mapped());
  t.Set(Lpn{5}, Ppn{100});
  EXPECT_TRUE(t.Get(Lpn{5}).mapped());
  EXPECT_EQ(t.Get(Lpn{5}).ppn, Ppn{100});
  EXPECT_EQ(t.Get(Lpn{5}).gran, MapGranularity::kPage);
  EXPECT_EQ(t.mapped_count(), 1u);
  t.Unmap(Lpn{5});
  EXPECT_FALSE(t.Get(Lpn{5}).mapped());
  EXPECT_EQ(t.mapped_count(), 0u);
}

TEST(MappingTableTest, SetResetsGranularity) {
  MappingTable t(SmallMapGeo());
  t.Set(Lpn{0}, Ppn{1});
  t.SetAggregated(Lpn{0}, 1, MapGranularity::kChunk);
  EXPECT_EQ(t.Get(Lpn{0}).gran, MapGranularity::kChunk);
  t.Set(Lpn{0}, Ppn{2});  // remap downgrades to page
  EXPECT_EQ(t.Get(Lpn{0}).gran, MapGranularity::kPage);
}

TEST(MappingTableTest, AggregateAndDowngradeRanges) {
  MappingTable t(SmallMapGeo());
  for (std::uint64_t i = 0; i < 1024; ++i) t.Set(Lpn{i}, Ppn{i});
  t.SetAggregated(Lpn{0}, 1024, MapGranularity::kChunk);
  EXPECT_EQ(t.Get(Lpn{0}).gran, MapGranularity::kChunk);
  EXPECT_EQ(t.Get(Lpn{1023}).gran, MapGranularity::kChunk);
  t.DowngradeToPage(Lpn{0}, 1024);
  EXPECT_EQ(t.Get(Lpn{512}).gran, MapGranularity::kPage);
  // PPNs survive bit flips — the table is always a full page map.
  EXPECT_EQ(t.Get(Lpn{512}).ppn, Ppn{512});
}

TEST(MappingTableTest, AddressHelpers) {
  MappingTable t(SmallMapGeo());
  EXPECT_EQ(t.ChunkOf(Lpn{1025}).value(), 1u);
  EXPECT_EQ(t.ZoneOf(Lpn{4097}).value(), 1u);
  EXPECT_EQ(t.ChunkBase(ChunkId{2}), Lpn{2048});
  EXPECT_EQ(t.ZoneBase(ZoneId{1}), Lpn{4096});
  EXPECT_EQ(t.MapPageOf(Lpn{4095}), 0u);
  EXPECT_EQ(t.MapPageOf(Lpn{4096}), 1u);
  EXPECT_EQ(t.NumMapPages(), 4u);
}

// --- l2p cache ---

TEST(L2PCacheTest, HitRefreshesRecency) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kPage, 1}, Ppn{10});
  c.Insert({MapGranularity::kPage, 2}, Ppn{20});
  // Touch entry 1, then insert a third: entry 2 must be the victim.
  EXPECT_TRUE(c.Lookup({MapGranularity::kPage, 1}).has_value());
  c.Insert({MapGranularity::kPage, 3}, Ppn{30});
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 1}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 2}).has_value());
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(L2PCacheTest, GranularityIsPartOfTheKey) {
  L2PCache c(SmallCacheCfg(4));
  c.Insert({MapGranularity::kPage, 0}, Ppn{1});
  c.Insert({MapGranularity::kChunk, 0}, Ppn{2});
  c.Insert({MapGranularity::kZone, 0}, Ppn{3});
  EXPECT_EQ(c.Peek({MapGranularity::kPage, 0}).value(), Ppn{1});
  EXPECT_EQ(c.Peek({MapGranularity::kChunk, 0}).value(), Ppn{2});
  EXPECT_EQ(c.Peek({MapGranularity::kZone, 0}).value(), Ppn{3});
}

TEST(L2PCacheTest, PinnedEntriesSurviveEviction) {
  L2PCache c(SmallCacheCfg(3));
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    c.Insert({MapGranularity::kPage, i}, Ppn{100 + i});
  }
  EXPECT_TRUE(c.Peek({MapGranularity::kZone, 0}).has_value());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.pinned_count(), 1u);
}

TEST(L2PCacheTest, AllPinnedRejectsUnpinnedInsert) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, true);
  c.Insert({MapGranularity::kZone, 1}, Ppn{2}, true);
  c.Insert({MapGranularity::kPage, 9}, Ppn{3});
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 9}).has_value());
  EXPECT_EQ(c.stats().rejected_insertions, 1u);
}

TEST(L2PCacheTest, EvictCoveredByRemovesFinerEntries) {
  L2PCache c(SmallCacheCfg(16));
  c.Insert({MapGranularity::kPage, 100}, Ppn{1});
  c.Insert({MapGranularity::kPage, 5000}, Ppn{2});   // different zone
  c.Insert({MapGranularity::kChunk, 0}, Ppn{3});     // chunk 0 of zone 0
  c.Insert({MapGranularity::kZone, 0}, Ppn{4}, true);
  c.EvictCoveredBy({MapGranularity::kZone, 0});
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 100}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kChunk, 0}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 5000}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kZone, 0}).has_value());
}

TEST(L2PCacheTest, InvalidateLpnRangeRemovesOverlaps) {
  L2PCache c(SmallCacheCfg(16));
  c.Insert({MapGranularity::kPage, 4096}, Ppn{1});
  c.Insert({MapGranularity::kChunk, 4}, Ppn{2});  // lpns 4096..5119
  c.Insert({MapGranularity::kZone, 1}, Ppn{3});   // lpns 4096..8191
  c.Insert({MapGranularity::kPage, 0}, Ppn{4});   // untouched
  c.InvalidateLpnRange(Lpn{4096}, 1024);
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 4096}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kChunk, 4}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kZone, 1}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 0}).has_value());
}

TEST(L2PCacheTest, StatsTrackHitRate) {
  L2PCache c(SmallCacheCfg(4));
  c.Insert({MapGranularity::kPage, 1}, Ppn{1});
  (void)c.Lookup({MapGranularity::kPage, 1});
  (void)c.Lookup({MapGranularity::kPage, 2});
  EXPECT_EQ(c.stats().lookups, 2u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(c.stats().HitRate(), 0.5);
}

TEST(L2PCacheTest, KeyForComputesUnitIndex) {
  L2PCache c(SmallCacheCfg(4));
  EXPECT_EQ(c.KeyFor(MapGranularity::kPage, Lpn{4097}).index, 4097u);
  EXPECT_EQ(c.KeyFor(MapGranularity::kChunk, Lpn{4097}).index, 4u);
  EXPECT_EQ(c.KeyFor(MapGranularity::kZone, Lpn{4097}).index, 1u);
}

// --- l2p cache: eviction order & capacity (pins the intrusive-LRU
// rewrite against the seed list+map semantics) ---

TEST(L2PCacheTest, EvictionFollowsExactLruOrder) {
  L2PCache c(SmallCacheCfg(4));
  for (std::uint64_t i = 0; i < 4; ++i) {
    c.Insert({MapGranularity::kPage, i}, Ppn{i});
  }
  // Recency now (most..least): 3 2 1 0. Touch 0 and 2: 2 0 3 1.
  EXPECT_TRUE(c.Lookup({MapGranularity::kPage, 0}).has_value());
  EXPECT_TRUE(c.Lookup({MapGranularity::kPage, 2}).has_value());
  // Each insert at capacity evicts exactly the current LRU entry.
  c.Insert({MapGranularity::kPage, 10}, Ppn{10});  // evicts 1
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 1}).has_value());
  c.Insert({MapGranularity::kPage, 11}, Ppn{11});  // evicts 3
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 3}).has_value());
  c.Insert({MapGranularity::kPage, 12}, Ppn{12});  // evicts 0
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 0}).has_value());
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 2}).has_value());
  EXPECT_EQ(c.stats().evictions, 3u);
  EXPECT_EQ(c.size(), 4u);
}

TEST(L2PCacheTest, RefreshInPlaceUpdatesValueAndRecency) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kPage, 1}, Ppn{10});
  c.Insert({MapGranularity::kPage, 2}, Ppn{20});
  c.Insert({MapGranularity::kPage, 1}, Ppn{11});  // refresh: new ppn, MRU
  EXPECT_EQ(c.Peek({MapGranularity::kPage, 1}).value(), Ppn{11});
  EXPECT_EQ(c.stats().insertions, 2u);  // refresh is not a new insertion
  c.Insert({MapGranularity::kPage, 3}, Ppn{30});  // evicts 2, not 1
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 1}).has_value());
  EXPECT_FALSE(c.Peek({MapGranularity::kPage, 2}).has_value());
}

TEST(L2PCacheTest, RefreshCanFlipPinnedState) {
  L2PCache c(SmallCacheCfg(2));
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/true);
  EXPECT_EQ(c.pinned_count(), 1u);
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/false);
  EXPECT_EQ(c.pinned_count(), 0u);
  c.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/true);
  EXPECT_EQ(c.pinned_count(), 1u);
}

TEST(L2PCacheTest, CapacityNeverExceededUnderChurn) {
  L2PCache c(SmallCacheCfg(8));
  for (std::uint64_t i = 0; i < 1000; ++i) {
    c.Insert({MapGranularity::kPage, i * 37}, Ppn{i});
    ASSERT_LE(c.size(), 8u);
  }
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.stats().insertions, 1000u);
  EXPECT_EQ(c.stats().evictions, 992u);
  // The survivors are exactly the 8 most recently inserted keys.
  for (std::uint64_t i = 992; i < 1000; ++i) {
    EXPECT_TRUE(c.Peek({MapGranularity::kPage, i * 37}).has_value());
  }
}

TEST(L2PCacheTest, EraseThenReinsertReusesCapacity) {
  L2PCache c(SmallCacheCfg(4));
  for (std::uint64_t i = 0; i < 4; ++i) {
    c.Insert({MapGranularity::kPage, i}, Ppn{i});
  }
  c.Erase({MapGranularity::kPage, 2});
  EXPECT_EQ(c.size(), 3u);
  c.Insert({MapGranularity::kPage, 99}, Ppn{99});
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.stats().evictions, 0u);  // freed capacity, no eviction needed
  EXPECT_TRUE(c.Peek({MapGranularity::kPage, 99}).has_value());
}

TEST(L2PCacheTest, ZeroCapacityCacheAcceptsNothing) {
  L2PCache c(SmallCacheCfg(0));
  c.Insert({MapGranularity::kPage, 1}, Ppn{1});
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.Lookup({MapGranularity::kPage, 1}).has_value());
  EXPECT_EQ(c.stats().lookups, 1u);
  EXPECT_EQ(c.stats().hits, 0u);
}

TEST(L2PCacheTest, HeavyChurnKeepsHashIndexConsistent) {
  // Backward-shift deletion stress: interleaved insert/erase with keys
  // that collide across granularities; every surviving entry must stay
  // findable with its exact value.
  L2PCache c(SmallCacheCfg(32));
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      c.Insert({MapGranularity::kPage, round * 32 + i}, Ppn{round * 32 + i});
    }
    for (std::uint64_t i = 0; i < 16; ++i) {
      c.Erase({MapGranularity::kPage, round * 32 + i * 2});
    }
    for (std::uint64_t i = 0; i < 32; ++i) {
      const std::uint64_t k = round * 32 + i;
      auto hit = c.Peek({MapGranularity::kPage, k});
      if (i % 2 == 0 && hit.has_value()) FAIL() << "erased key resurfaced: " << k;
      if (i % 2 == 1) {
        ASSERT_TRUE(hit.has_value()) << "lost key " << k;
        EXPECT_EQ(hit.value(), Ppn{k});
      }
    }
  }
}

// --- l2p cache: differential test against a per-entry reference ---

/// The L2P cache's semantics, one entry at a time, over std::list + map:
/// front = most recently used; eviction takes the last unpinned entry.
/// InsertPageRun is the per-entry Insert loop the cache must match.
class ReferenceL2p {
 public:
  explicit ReferenceL2p(const L2pCacheConfig& cfg) : cfg_(cfg), max_(cfg.MaxEntries()) {}

  std::optional<Ppn> Lookup(const L2pKey& key) {
    ++stats_.lookups;
    auto it = index_.find(key.Encoded());
    if (it == index_.end()) return std::nullopt;
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->ppn;
  }

  void Insert(const L2pKey& key, Ppn ppn, bool pinned) {
    if (max_ == 0) return;
    auto it = index_.find(key.Encoded());
    if (it != index_.end()) {
      Entry& e = *it->second;
      if (e.pinned && !pinned) --pinned_;
      if (!e.pinned && pinned) ++pinned_;
      e.ppn = ppn;
      e.pinned = pinned;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() >= max_) {
      if (pinned_ >= max_ && !pinned) {
        ++stats_.rejected_insertions;
        return;
      }
      for (auto r = lru_.rbegin(); r != lru_.rend(); ++r) {
        if (r->pinned) continue;
        index_.erase(r->key);
        lru_.erase(std::next(r).base());
        ++stats_.evictions;
        break;
      }
      if (lru_.size() >= max_) {
        ++stats_.rejected_insertions;
        return;
      }
    }
    lru_.push_front(Entry{key.Encoded(), ppn, pinned});
    index_[key.Encoded()] = lru_.begin();
    if (pinned) ++pinned_;
    ++stats_.insertions;
  }

  void InsertPageRun(Lpn first_lpn, const std::vector<Ppn>& ppns) {
    for (std::size_t i = 0; i < ppns.size(); ++i) {
      Insert(L2pKey{MapGranularity::kPage, first_lpn.value() + i}, ppns[i], false);
    }
  }

  void Erase(const L2pKey& key) {
    auto it = index_.find(key.Encoded());
    if (it == index_.end()) return;
    if (it->second->pinned) --pinned_;
    lru_.erase(it->second);
    index_.erase(it);
  }

  void EvictCoveredBy(const L2pKey& key) {
    if (key.gran == MapGranularity::kPage) return;
    const std::uint64_t unit =
        key.gran == MapGranularity::kZone ? cfg_.lpns_per_zone : cfg_.lpns_per_chunk;
    const std::uint64_t start = key.index * unit;
    if (key.gran == MapGranularity::kZone) {
      for (std::uint64_t c = 0; c < unit / cfg_.lpns_per_chunk; ++c) {
        Erase(L2pKey{MapGranularity::kChunk, start / cfg_.lpns_per_chunk + c});
      }
    }
    for (std::uint64_t i = 0; i < unit; ++i) Erase(L2pKey{MapGranularity::kPage, start + i});
  }

  void InvalidateLpnRange(Lpn start, std::uint64_t count) {
    const std::uint64_t lo = start.value();
    const std::uint64_t hi = lo + count;
    for (std::uint64_t l = lo; l < hi; ++l) Erase(L2pKey{MapGranularity::kPage, l});
    for (std::uint64_t c = lo / cfg_.lpns_per_chunk; c * cfg_.lpns_per_chunk < hi; ++c) {
      Erase(L2pKey{MapGranularity::kChunk, c});
    }
    for (std::uint64_t z = lo / cfg_.lpns_per_zone; z * cfg_.lpns_per_zone < hi; ++z) {
      Erase(L2pKey{MapGranularity::kZone, z});
    }
  }

  std::size_t size() const { return lru_.size(); }
  std::size_t pinned_count() const { return pinned_; }
  const L2pCacheStats& stats() const { return stats_; }

  /// (encoded key, ppn, pinned), most recently used first.
  std::vector<std::tuple<std::uint64_t, std::uint64_t, bool>> Entries() const {
    std::vector<std::tuple<std::uint64_t, std::uint64_t, bool>> out;
    for (const Entry& e : lru_) out.emplace_back(e.key, e.ppn.value(), e.pinned);
    return out;
  }

 private:
  struct Entry {
    std::uint64_t key;
    Ppn ppn;
    bool pinned;
  };
  L2pCacheConfig cfg_;
  std::uint64_t max_;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> index_;
  std::size_t pinned_ = 0;
  L2pCacheStats stats_;
};

std::vector<std::tuple<std::uint64_t, std::uint64_t, bool>> CacheEntries(const L2PCache& c) {
  std::vector<std::tuple<std::uint64_t, std::uint64_t, bool>> out;
  c.ForEachMostRecentFirst([&](const L2pKey& key, Ppn ppn, bool pinned) {
    out.emplace_back(key.Encoded(), ppn.value(), pinned);
  });
  return out;
}

/// Resident keys, PPNs, recency (hence eviction) order, pins, size and
/// every stats field agree; the index finds exactly the resident keys.
::testing::AssertionResult SameState(const L2PCache& c, const ReferenceL2p& ref,
                                     const std::vector<L2pKey>& probe_keys) {
  const auto got = CacheEntries(c);
  const auto want = ref.Entries();
  if (got != want) {
    return ::testing::AssertionFailure()
           << "entries differ: " << got.size() << " vs " << want.size() << " resident";
  }
  if (c.size() != ref.size()) return ::testing::AssertionFailure() << "size";
  if (c.pinned_count() != ref.pinned_count()) {
    return ::testing::AssertionFailure() << "pinned_count " << c.pinned_count() << " vs "
                                         << ref.pinned_count();
  }
  const L2pCacheStats& a = c.stats();
  const L2pCacheStats& b = ref.stats();
  if (a.lookups != b.lookups || a.hits != b.hits || a.insertions != b.insertions ||
      a.evictions != b.evictions || a.rejected_insertions != b.rejected_insertions) {
    return ::testing::AssertionFailure()
           << "stats: insertions " << a.insertions << "/" << b.insertions << " evictions "
           << a.evictions << "/" << b.evictions << " rejected " << a.rejected_insertions
           << "/" << b.rejected_insertions << " lookups " << a.lookups << "/" << b.lookups
           << " hits " << a.hits << "/" << b.hits;
  }
  for (const auto& [key, ppn, pinned] : want) {
    const L2pKey k{static_cast<MapGranularity>(key & 3), key >> 2};
    if (c.Peek(k) != std::optional<Ppn>(Ppn{ppn})) {
      return ::testing::AssertionFailure() << "index lost resident key " << key;
    }
  }
  for (const L2pKey& k : probe_keys) {
    const bool resident = std::any_of(want.begin(), want.end(), [&](const auto& e) {
      return std::get<0>(e) == k.Encoded();
    });
    if (c.Peek(k).has_value() != resident) {
      return ::testing::AssertionFailure() << "index disagrees on key " << k.Encoded();
    }
  }
  return ::testing::AssertionSuccess();
}

struct DiffCase {
  std::uint64_t capacity;
  std::uint64_t base;  // first page key of the key universe
  std::uint64_t seed;
};

/// Random op streams over a small key universe (so runs overlap resident
/// keys and evict each other), compared after every op.
void RunDifferential(const DiffCase& dc) {
  L2pCacheConfig cfg = SmallCacheCfg(dc.capacity);
  cfg.lpns_per_chunk = 4;  // small units: aggregates cover a handful of pages
  cfg.lpns_per_zone = 16;
  L2PCache cache(cfg);
  ReferenceL2p ref(cfg);
  Rng rng(dc.seed);
  const std::uint64_t universe = 3 * dc.capacity + 24;
  auto page = [&] { return dc.base + rng.NextBelow(universe); };
  auto aggregate = [&] {
    const bool zone = rng.NextBool(0.5);
    const std::uint64_t unit = zone ? cfg.lpns_per_zone : cfg.lpns_per_chunk;
    return L2pKey{zone ? MapGranularity::kZone : MapGranularity::kChunk, page() / unit};
  };
  std::vector<L2pKey> probe_keys;
  for (std::uint64_t i = 0; i < universe + 8; ++i) {
    probe_keys.push_back({MapGranularity::kPage, dc.base + i});
    probe_keys.push_back({MapGranularity::kChunk, (dc.base + i) / cfg.lpns_per_chunk});
    probe_keys.push_back({MapGranularity::kZone, (dc.base + i) / cfg.lpns_per_zone});
  }
  std::uint64_t next_ppn = 1;
  for (int op = 0; op < 1500; ++op) {
    const std::uint64_t dice = rng.NextBelow(100);
    std::string what;
    if (dice < 40) {
      // A run: sometimes starting at the LRU entry's key (a resident run
      // key at the tail), sometimes longer than the whole cache.
      std::uint64_t first = page();
      const auto entries = CacheEntries(cache);
      if (!entries.empty() && rng.NextBool(0.3) && (std::get<0>(entries.back()) & 3) == 0) {
        first = std::get<0>(entries.back()) >> 2;
      }
      const std::uint64_t len = rng.NextBelow(rng.NextBool(0.2) ? 2 * dc.capacity + 8 : 12);
      std::vector<Ppn> ppns;
      for (std::uint64_t i = 0; i < len; ++i) ppns.push_back(Ppn{next_ppn++});
      cache.InsertPageRun(Lpn{first}, ppns);
      ref.InsertPageRun(Lpn{first}, ppns);
      what = "InsertPageRun(" + std::to_string(first) + ", " + std::to_string(len) + ")";
    } else if (dice < 55) {
      const L2pKey k{MapGranularity::kPage, page()};
      cache.Insert(k, Ppn{next_ppn}, false);
      ref.Insert(k, Ppn{next_ppn++}, false);
      what = "Insert";
    } else if (dice < 63) {
      const L2pKey k = rng.NextBool(0.7) ? aggregate() : L2pKey{MapGranularity::kPage, page()};
      cache.Insert(k, Ppn{next_ppn}, true);
      ref.Insert(k, Ppn{next_ppn++}, true);
      what = "Insert(pinned)";
    } else if (dice < 78) {
      const L2pKey k = rng.NextBool(0.8) ? L2pKey{MapGranularity::kPage, page()} : aggregate();
      const auto a = cache.Lookup(k);
      const auto b = ref.Lookup(k);
      ASSERT_EQ(a, b) << "op " << op << " Lookup";
      what = "Lookup";
    } else if (dice < 88) {
      const L2pKey k = rng.NextBool(0.8) ? L2pKey{MapGranularity::kPage, page()} : aggregate();
      cache.Erase(k);
      ref.Erase(k);
      what = "Erase";
    } else if (dice < 94) {
      const L2pKey k = aggregate();
      cache.EvictCoveredBy(k);
      ref.EvictCoveredBy(k);
      what = "EvictCoveredBy";
    } else {
      const Lpn start{page()};
      const std::uint64_t count = 1 + rng.NextBelow(20);
      cache.InvalidateLpnRange(start, count);
      ref.InvalidateLpnRange(start, count);
      what = "InvalidateLpnRange";
    }
    ASSERT_TRUE(SameState(cache, ref, probe_keys))
        << "after op " << op << " " << what << " (capacity " << dc.capacity << ", base "
        << dc.base << ", seed " << dc.seed << ")";
  }
}

TEST(L2PCacheDifferentialTest, RandomOpStreamsMatchPerEntryReference) {
  // Key universes at 0, straddling the first leaf boundary (4096), and
  // far out (directory growth).
  for (std::uint64_t capacity : {0, 1, 2, 3, 5, 8, 16, 33}) {
    for (std::uint64_t base : {0ull, 4096ull - 40, 1ull << 22}) {
      for (std::uint64_t seed : {1, 2, 3}) {
        RunDifferential(DiffCase{capacity, base, seed * 1000 + capacity});
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(L2PCacheDifferentialTest, RunOverlappingResidentKeysAtTheTail) {
  L2pCacheConfig cfg = SmallCacheCfg(6);
  L2PCache cache(cfg);
  ReferenceL2p ref(cfg);
  // Recency (most..least): 5 4 3 2 1 0 — keys 0 and 1 sit at the tail.
  for (std::uint64_t i = 0; i < 6; ++i) {
    cache.Insert({MapGranularity::kPage, i}, Ppn{100 + i});
    ref.Insert({MapGranularity::kPage, i}, Ppn{100 + i}, false);
  }
  const std::vector<Ppn> run = {Ppn{1}, Ppn{2}, Ppn{3}};
  cache.InsertPageRun(Lpn{6}, run);  // 6, 7, 8 evict 0, 1, 2: tail is now 3
  ref.InsertPageRun(Lpn{6}, run);
  ASSERT_TRUE(SameState(cache, ref, {}));
  // Run 2..6 over recency 8 7 6 5 4 3: new key 2 evicts 3 before key 3's
  // turn, key 3 (now new) evicts 4, and so on — every run key, resident
  // before the run or not, ends up a new insertion.
  const std::vector<Ppn> run2 = {Ppn{7}, Ppn{8}, Ppn{9}, Ppn{10}, Ppn{11}};
  cache.InsertPageRun(Lpn{2}, run2);
  ref.InsertPageRun(Lpn{2}, run2);
  ASSERT_TRUE(SameState(cache, ref, {}));
  EXPECT_EQ(cache.stats().insertions, 6u + 3u + 5u);
  EXPECT_EQ(cache.stats().evictions, 3u + 5u);
  EXPECT_EQ(cache.Peek({MapGranularity::kPage, 3}).value(), Ppn{8});
  EXPECT_FALSE(cache.Peek({MapGranularity::kPage, 7}).has_value());
}

TEST(L2PCacheDifferentialTest, RunLongerThanCapacityKeepsTheTail) {
  L2pCacheConfig cfg = SmallCacheCfg(4);
  L2PCache cache(cfg);
  ReferenceL2p ref(cfg);
  cache.Insert({MapGranularity::kZone, 0}, Ppn{1}, /*pinned=*/true);
  ref.Insert({MapGranularity::kZone, 0}, Ppn{1}, true);
  std::vector<Ppn> run;
  for (std::uint64_t i = 0; i < 11; ++i) run.push_back(Ppn{50 + i});
  cache.InsertPageRun(Lpn{100}, run);
  ref.InsertPageRun(Lpn{100}, run);
  ASSERT_TRUE(SameState(cache, ref, {}));
  // The pin survives; the 3 unpinned slots hold the run's last 3 keys.
  EXPECT_TRUE(cache.Peek({MapGranularity::kZone, 0}).has_value());
  EXPECT_EQ(cache.stats().evictions, 11u - 3u);
  EXPECT_TRUE(cache.Peek({MapGranularity::kPage, 110}).has_value());
  EXPECT_FALSE(cache.Peek({MapGranularity::kPage, 107}).has_value());
}

TEST(L2PCacheDifferentialTest, ZeroCapacityRunIsANoOp) {
  L2PCache cache(SmallCacheCfg(0));
  const std::vector<Ppn> run = {Ppn{1}, Ppn{2}};
  cache.InsertPageRun(Lpn{0}, run);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_EQ(cache.stats().rejected_insertions, 0u);
}

TEST(L2PCacheDifferentialTest, AllPinnedCacheRejectsUntilARefreshUnpins) {
  L2pCacheConfig cfg = SmallCacheCfg(3);
  L2PCache cache(cfg);
  ReferenceL2p ref(cfg);
  for (std::uint64_t i = 0; i < 3; ++i) {
    cache.Insert({MapGranularity::kPage, 10 + i}, Ppn{i}, /*pinned=*/true);
    ref.Insert({MapGranularity::kPage, 10 + i}, Ppn{i}, true);
  }
  // 8, 9 rejected; 10 refreshed and unpinned; 11 refreshed; 12 refreshed;
  // 13, 14 evict the now-unpinned entries from the tail.
  std::vector<Ppn> run;
  for (std::uint64_t i = 0; i < 7; ++i) run.push_back(Ppn{70 + i});
  cache.InsertPageRun(Lpn{8}, run);
  ref.InsertPageRun(Lpn{8}, run);
  ASSERT_TRUE(SameState(cache, ref, {}));
  EXPECT_EQ(cache.stats().rejected_insertions, 2u);
  EXPECT_EQ(cache.pinned_count(), 0u);
  // A run into a cache pinned full with no overlap is rejected whole.
  L2PCache full(cfg);
  ReferenceL2p full_ref(cfg);
  for (std::uint64_t i = 0; i < 3; ++i) {
    full.Insert({MapGranularity::kZone, i}, Ppn{i}, true);
    full_ref.Insert({MapGranularity::kZone, i}, Ppn{i}, true);
  }
  full.InsertPageRun(Lpn{0}, run);
  full_ref.InsertPageRun(Lpn{0}, run);
  ASSERT_TRUE(SameState(full, full_ref, {}));
  EXPECT_EQ(full.stats().rejected_insertions, 7u);
}

// --- translator ---

/// Resolver over a flat imaginary layout: aggregated unit i maps lpn to
/// ppn = 100000*gran + lpn (keeps the math visible in expectations).
class FlatResolver : public PhysicalResolver {
 public:
  std::optional<Ppn> ResolveAggregated(MapGranularity gran, std::uint64_t,
                                       Lpn lpn) const override {
    return Ppn{100000ull * static_cast<std::uint64_t>(gran) + lpn.value()};
  }
};

class TranslatorTest : public ::testing::Test {
 protected:
  TranslatorTest()
      : table_(SmallMapGeo()), cache_(SmallCacheCfg(64)) {}

  Translator Make(L2pSearchStrategy s, bool hybrid = true,
                  std::uint32_t prefetch = 0) {
    return Translator(table_, cache_, resolver_, TranslatorConfig{s, hybrid, prefetch});
  }

  /// Map zone 0 fully, zone-aggregated; zone 1 chunk-aggregated in chunk
  /// 4 only; lpns 8192.. page-mapped.
  void PopulateMixed() {
    for (std::uint64_t i = 0; i < 12288; ++i) table_.Set(Lpn{i}, Ppn{7000000 + i});
    table_.SetAggregated(Lpn{0}, 4096, MapGranularity::kZone);
    table_.SetAggregated(Lpn{4096}, 1024, MapGranularity::kChunk);
  }

  MappingTable table_;
  L2PCache cache_;
  FlatResolver resolver_;
};

TEST_F(TranslatorTest, UnmappedLpnFails) {
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  EXPECT_EQ(tr.Translate(Lpn{99}).status().code(), StatusCode::kOutOfRange);
}

TEST_F(TranslatorTest, BitmapFetchesExactlyOnce) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  auto r = tr.Translate(Lpn{123});  // zone-aggregated
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().cache_hit);
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
  EXPECT_EQ(r.value().gran, MapGranularity::kZone);
  EXPECT_EQ(r.value().ppn, Ppn{200000 + 123});  // resolver(kZone)
  // Second read of anywhere in zone 0: cache hit through the zone entry.
  auto r2 = tr.Translate(Lpn{4000});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().cache_hit);
  EXPECT_EQ(tr.stats().map_fetches, 1u);
}

TEST_F(TranslatorTest, MultipleWalksDownTheGranularities) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kMultiple);
  // Page-mapped lpn far from zone/chunk bases: LZA, LCA, LPA = 3 fetches.
  auto r = tr.Translate(Lpn{8192 + 1500});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().map_pages_fetched.size(), 3u);
  EXPECT_EQ(r.value().gran, MapGranularity::kPage);
  EXPECT_EQ(r.value().ppn, Ppn{7000000 + 8192 + 1500});
}

TEST_F(TranslatorTest, MultipleStopsEarlyOnZoneAggregate) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kMultiple);
  auto r = tr.Translate(Lpn{2000});  // zone 0, aggregated
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
  EXPECT_EQ(r.value().gran, MapGranularity::kZone);
}

TEST_F(TranslatorTest, MultipleChunkCostsTwoFetches) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kMultiple);
  auto r = tr.Translate(Lpn{4096 + 500});  // chunk-aggregated, chunk base == zone base
  ASSERT_TRUE(r.ok());
  // Zone base IS the chunk base here, so the first fetch answers: 1 fetch.
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
  EXPECT_EQ(r.value().gran, MapGranularity::kChunk);
}

TEST_F(TranslatorTest, PinnedMissImpliesPage) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kPinned);
  // Zone aggregate generated -> pinned into the cache.
  tr.OnAggregateGenerated(MapGranularity::kZone, 0, Ppn{100});
  auto hit = tr.Translate(Lpn{55});
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  // Page-mapped miss: exactly one fetch.
  auto r = tr.Translate(Lpn{9000});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
}

TEST_F(TranslatorTest, PageModeUsesPageEntriesOnly) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap, /*hybrid=*/false);
  auto r = tr.Translate(Lpn{123});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().gran, MapGranularity::kPage);
  EXPECT_EQ(r.value().ppn, Ppn{7000000 + 123});  // direct table ppn
  EXPECT_EQ(r.value().map_pages_fetched.size(), 1u);
}

TEST_F(TranslatorTest, PrefetchWindowFillsFollowingEntries) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap, /*hybrid=*/false,
                       /*prefetch=*/16);
  auto r = tr.Translate(Lpn{8192});
  ASSERT_TRUE(r.ok());
  // The next 16 lpns are now cached without extra fetches.
  for (std::uint64_t i = 1; i <= 16; ++i) {
    auto n = tr.Translate(Lpn{8192 + i});
    ASSERT_TRUE(n.ok());
    EXPECT_TRUE(n.value().cache_hit) << i;
  }
  EXPECT_EQ(tr.stats().map_fetches, 1u);
}

TEST_F(TranslatorTest, PrefetchStopsAtMapPageBoundary) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap, false, 1023);
  // Lpn 4095 is the last entry of map page 0: nothing after it can be
  // prefetched from the same page read.
  auto r = tr.Translate(Lpn{4095});
  ASSERT_TRUE(r.ok());
  auto n = tr.Translate(Lpn{4096});
  ASSERT_TRUE(n.ok());
  EXPECT_FALSE(n.value().cache_hit);
}

TEST_F(TranslatorTest, PrefetchMissMatchesPerEntryInsertLoop) {
  PopulateMixed();
  // Resident before the miss: a pinned aggregate and page keys inside
  // the prefetch run, one of them at the LRU tail.
  ReferenceL2p ref(SmallCacheCfg(64));
  for (std::uint64_t l : {8200ull, 8192ull + 700, 8195ull}) {
    cache_.Insert({MapGranularity::kPage, l}, Ppn{l});
    ref.Insert({MapGranularity::kPage, l}, Ppn{l}, false);
  }
  cache_.Insert({MapGranularity::kZone, 3}, Ppn{9}, /*pinned=*/true);
  ref.Insert({MapGranularity::kZone, 3}, Ppn{9}, true);

  Translator tr = Make(L2pSearchStrategy::kBitmap, /*hybrid=*/false, /*prefetch=*/1023);
  auto r = tr.Translate(Lpn{8193});
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().cache_hit);
  // The per-entry loop the translator used to run: the missed entry,
  // then each following mapped entry of the map page, one Insert each.
  (void)ref.Lookup({MapGranularity::kPage, 8193});
  for (std::uint64_t l = 8193; l < 8193 + 1024; ++l) {
    ref.Insert({MapGranularity::kPage, l}, table_.Get(Lpn{l}).ppn, false);
  }
  EXPECT_TRUE(SameState(cache_, ref, {}));
  EXPECT_EQ(cache_.stats().insertions, 3u + 1u + 1024u - 2u);
  EXPECT_EQ(cache_.stats().evictions, cache_.stats().insertions - 64u);
}

TEST_F(TranslatorTest, StatsAccumulate) {
  PopulateMixed();
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  (void)tr.Translate(Lpn{1});
  (void)tr.Translate(Lpn{2});
  EXPECT_EQ(tr.stats().translations, 2u);
  EXPECT_EQ(tr.stats().cache_hits, 1u);  // second resolves via zone entry
  EXPECT_DOUBLE_EQ(tr.stats().MissRate(), 0.5);
}

TEST_F(TranslatorTest, BitmapSramScalesWithCapacity) {
  Translator tr = Make(L2pSearchStrategy::kBitmap);
  // 2 bits x 16384 lpns = 4096 bytes.
  EXPECT_EQ(tr.StrategySramBytes(), 4096u);
  Translator tm = Make(L2pSearchStrategy::kMultiple);
  EXPECT_EQ(tm.StrategySramBytes(), 0u);
}

}  // namespace
}  // namespace conzone
