#include "ftl/l2p_cache.hpp"

#include <algorithm>
#include <cassert>

namespace conzone {

L2PCache::L2PCache(const L2pCacheConfig& config)
    : cfg_(config),
      max_entries_(config.MaxEntries()),
      div_lpns_per_chunk_(config.lpns_per_chunk),
      div_lpns_per_zone_(config.lpns_per_zone) {
  assert(cfg_.lpns_per_zone % cfg_.lpns_per_chunk == 0);
  if (max_entries_ > 0) {
    slots_.resize(max_entries_);
    links_.resize(max_entries_);
    free_slots_.reserve(max_entries_);
    // Free list popped from the back: push in reverse so slot 0 is used
    // first (purely cosmetic; any order works).
    for (std::uint64_t i = max_entries_; i > 0; --i) {
      free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
    }
  }
}

std::uint64_t L2PCache::UnitLpns(MapGranularity g) const {
  switch (g) {
    case MapGranularity::kPage: return 1;
    case MapGranularity::kChunk: return cfg_.lpns_per_chunk;
    case MapGranularity::kZone: return cfg_.lpns_per_zone;
  }
  return 1;
}

L2pKey L2PCache::KeyFor(MapGranularity g, Lpn lpn) const {
  switch (g) {
    case MapGranularity::kPage: return L2pKey{g, lpn.value()};
    case MapGranularity::kChunk: return L2pKey{g, div_lpns_per_chunk_.Div(lpn.value())};
    case MapGranularity::kZone: return L2pKey{g, div_lpns_per_zone_.Div(lpn.value())};
  }
  return L2pKey{g, lpn.value()};
}

std::uint32_t L2PCache::Find(const L2pKey& key) const {
  const std::vector<std::uint32_t>& dir = dir_[static_cast<int>(key.gran)];
  const std::uint64_t hi = key.index >> kLeafBits;
  if (hi >= dir.size() || dir[hi] == kNil) return kNil;
  return leaves_[dir[hi]][key.index & kLeafMask];
}

std::uint32_t L2PCache::CellFor(const L2pKey& key) {
  std::vector<std::uint32_t>& dir = dir_[static_cast<int>(key.gran)];
  const std::uint64_t hi = key.index >> kLeafBits;
  if (hi >= dir.size()) dir.resize(hi + 1, kNil);
  if (dir[hi] == kNil) {
    assert(leaves_.size() < (1ull << (32 - kLeafBits)));  // cell ids are 32-bit
    dir[hi] = static_cast<std::uint32_t>(leaves_.size());
    auto& leaf =
        leaves_.emplace_back(std::make_unique_for_overwrite<std::uint32_t[]>(kLeafSize));
    std::fill_n(leaf.get(), kLeafSize, kNil);
  }
  return static_cast<std::uint32_t>((std::uint64_t{dir[hi]} << kLeafBits) |
                                    (key.index & kLeafMask));
}

void L2PCache::LruUnlink(std::uint32_t slot) {
  Link& l = links_[slot];
  if (l.next == slot) {
    lru_head_ = kNil;
  } else {
    links_[l.prev].next = l.next;
    links_[l.next].prev = l.prev;
    if (lru_head_ == slot) lru_head_ = l.next;
  }
  l.prev = l.next = kNil;
}

void L2PCache::LruPushFront(std::uint32_t slot) {
  Link& l = links_[slot];
  if (lru_head_ == kNil) {
    l.prev = l.next = slot;
  } else {
    Link& head = links_[lru_head_];
    l.next = lru_head_;
    l.prev = head.prev;
    links_[head.prev].next = slot;
    head.prev = slot;
  }
  lru_head_ = slot;
}

void L2PCache::LruMoveToFront(std::uint32_t slot) {
  if (lru_head_ == slot) return;
  if (links_[lru_head_].prev == slot) {
    // The LRU entry already sits just before the head on the circle.
    lru_head_ = slot;
    return;
  }
  LruUnlink(slot);
  LruPushFront(slot);
}

std::uint32_t L2PCache::LruVictim() const {
  // Scan from the LRU end, skipping pinned entries (they also live in
  // the chain but are exempt from eviction).
  if (lru_head_ == kNil) return kNil;
  std::uint32_t s = links_[lru_head_].prev;
  for (std::size_t n = size_; n > 0; --n, s = links_[s].prev) {
    if (!slots_[s].pinned) return s;
  }
  return kNil;
}

std::optional<Ppn> L2PCache::Lookup(const L2pKey& key) {
  ++stats_.lookups;
  const std::uint32_t slot = Find(key);
  if (slot == kNil) return std::nullopt;
  ++stats_.hits;
  LruMoveToFront(slot);
  return slots_[slot].base_ppn;
}

std::optional<Ppn> L2PCache::Peek(const L2pKey& key) const {
  const std::uint32_t slot = Find(key);
  if (slot == kNil) return std::nullopt;
  return slots_[slot].base_ppn;
}

void L2PCache::Install(std::uint32_t cell, const L2pKey& key, Ppn base_ppn,
                       bool pinned) {
  if (const std::uint32_t resident = Cell(cell); resident != kNil) {
    // Refresh in place.
    Slot& s = slots_[resident];
    if (s.pinned && !pinned) --pinned_count_;
    if (!s.pinned && pinned) ++pinned_count_;
    s.base_ppn = base_ppn;
    s.pinned = pinned;
    LruMoveToFront(resident);
    return;
  }
  std::uint32_t slot;
  if (size_ < max_entries_) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    LruPushFront(slot);
    ++size_;
  } else {
    // Full: the LRU unpinned entry gives up its slot. If every resident
    // entry is pinned, drop the insertion rather than overflow SRAM.
    slot = (pinned_count_ < max_entries_) ? LruVictim() : kNil;
    if (slot == kNil) {
      ++stats_.rejected_insertions;
      return;
    }
    Cell(slots_[slot].cell) = kNil;
    ++stats_.evictions;
    LruMoveToFront(slot);
  }
  Slot& s = slots_[slot];
  s.key = key.Encoded();
  s.base_ppn = base_ppn;
  s.cell = cell;
  s.pinned = pinned;
  Cell(cell) = slot;
  if (pinned) ++pinned_count_;
  ++stats_.insertions;
}

void L2PCache::Insert(const L2pKey& key, Ppn base_ppn, bool pinned) {
  if (max_entries_ == 0) return;
  Install(CellFor(key), key, base_ppn, pinned);
}

void L2PCache::InsertPageRun(Lpn first_lpn, std::span<const Ppn> ppns) {
  if (max_entries_ == 0) return;
  std::uint64_t index = first_lpn.value();
  std::uint64_t replaced = 0;  // fast-path evictions, each also an insertion
  for (std::size_t i = 0; i < ppns.size();) {
    // The run's keys are consecutive, so are their index cells: locate
    // each leaf once. Installing allocates no leaf.
    const std::uint32_t first_cell = CellFor(L2pKey{MapGranularity::kPage, index});
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(ppns.size() - i, kLeafSize - (index & kLeafMask)));
    std::uint32_t* const cells = &Cell(first_cell);
    // The fast path keeps the head in a register; the slow path (Install)
    // sees it in the member.
    Slot* const slots = slots_.data();
    const Link* const links = links_.data();
    std::uint32_t head = lru_head_;
    for (std::size_t j = 0; j < n; ++j, ++i, ++index) {
      const auto cell = static_cast<std::uint32_t>(first_cell + j);
      if (cells[j] == kNil && size_ == max_entries_) {
        // Full and the key is new: the LRU entry gives up its slot. When
        // it is unpinned (always, unless pins sit at the tail), making the
        // slot the most recent entry only moves the circular chain's head.
        const std::uint32_t victim = links[head].prev;
        Slot& s = slots[victim];
        if (!s.pinned) {
          Cell(s.cell) = kNil;
          s.key = L2pKey{MapGranularity::kPage, index}.Encoded();
          s.base_ppn = ppns[i];
          s.cell = cell;
          cells[j] = victim;
          head = victim;
          ++replaced;
          continue;
        }
      }
      lru_head_ = head;
      Install(cell, L2pKey{MapGranularity::kPage, index}, ppns[i], /*pinned=*/false);
      head = lru_head_;
    }
    lru_head_ = head;
  }
  stats_.evictions += replaced;
  stats_.insertions += replaced;
}

void L2PCache::Erase(const L2pKey& key) {
  if (size_ == 0) return;  // the write path erases on every write
  const std::uint32_t slot = Find(key);
  if (slot == kNil) return;
  if (slots_[slot].pinned) --pinned_count_;
  Cell(slots_[slot].cell) = kNil;
  LruUnlink(slot);
  free_slots_.push_back(slot);
  --size_;
}

void L2PCache::EvictCoveredBy(const L2pKey& key) {
  const std::uint64_t unit = UnitLpns(key.gran);
  const std::uint64_t start = key.index * unit;
  if (key.gran == MapGranularity::kPage || size_ == 0) return;
  // Chunk entries covered (only when key is a zone).
  if (key.gran == MapGranularity::kZone) {
    const std::uint64_t chunks = unit / cfg_.lpns_per_chunk;
    const std::uint64_t first = start / cfg_.lpns_per_chunk;
    for (std::uint64_t c = 0; c < chunks; ++c) {
      Erase(L2pKey{MapGranularity::kChunk, first + c});
    }
  }
  // Page entries covered. Ranges are at most one zone (4096 keys) — cheap
  // relative to the flash ops that trigger aggregation.
  for (std::uint64_t i = 0; i < unit; ++i) {
    Erase(L2pKey{MapGranularity::kPage, start + i});
  }
}

void L2PCache::InvalidateLpnRange(Lpn start, std::uint64_t count) {
  const std::uint64_t lo = start.value();
  const std::uint64_t hi = lo + count;  // exclusive
  // Stop once the cache is empty: remount clears the whole device range,
  // usually from a nearly empty cache.
  for (std::uint64_t lpn = lo; lpn < hi && size_ > 0; ++lpn) {
    Erase(L2pKey{MapGranularity::kPage, lpn});
  }
  for (std::uint64_t c = lo / cfg_.lpns_per_chunk;
       c * cfg_.lpns_per_chunk < hi && size_ > 0; ++c) {
    Erase(L2pKey{MapGranularity::kChunk, c});
  }
  for (std::uint64_t z = lo / cfg_.lpns_per_zone;
       z * cfg_.lpns_per_zone < hi && size_ > 0; ++z) {
    Erase(L2pKey{MapGranularity::kZone, z});
  }
}

}  // namespace conzone
