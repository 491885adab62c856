#include "src/mmu/tlb.h"

namespace vusion {

Tlb::Tlb(std::size_t capacity) : capacity_(capacity) {}

std::optional<Pte> Tlb::Lookup(Vpn vpn) {
  const auto it = map_.find(vpn);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->pte;
}

void Tlb::Insert(Vpn vpn, const Pte& pte) {
  const auto it = map_.find(vpn);
  if (it != map_.end()) {
    it->second->pte = pte;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().vpn);
    lru_.pop_back();
  }
  lru_.push_front(Entry{vpn, pte});
  map_[vpn] = lru_.begin();
}

void Tlb::Invalidate(Vpn vpn) {
  const auto it = map_.find(vpn);
  if (it != map_.end()) {
    lru_.erase(it->second);
    map_.erase(it);
  }
}

void Tlb::InvalidateRange(Vpn start, Vpn end) {
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->vpn >= start && it->vpn < end) {
      map_.erase(it->vpn);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

void Tlb::Flush() {
  lru_.clear();
  map_.clear();
}

}  // namespace vusion

#include "src/snapshot/io.h"

namespace vusion {

void Tlb::SaveState(snapshot::SnapshotWriter& w) const {
  w.U64(lru_.size());
  for (const Entry& entry : lru_) {  // front (MRU) first
    w.U64(entry.vpn);
    w.U32(entry.pte.frame);
    w.U16(entry.pte.flags);
  }
  w.U64(hits_);
  w.U64(misses_);
}

void Tlb::RestoreState(snapshot::SnapshotReader& r) {
  lru_.clear();
  map_.clear();
  const std::uint64_t n = r.Count(14);
  // A repeated vpn or an overfull list would leave list nodes the map cannot
  // reach, which a later eviction turns into a dangling translation.
  if (n > capacity_) {
    throw snapshot::RestoreError("procs", "TLB holds more entries than its capacity");
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    Entry entry;
    entry.vpn = r.U64();
    entry.pte.frame = r.U32();
    entry.pte.flags = r.U16();
    lru_.push_back(entry);
    if (!map_.emplace(entry.vpn, std::prev(lru_.end())).second) {
      throw snapshot::RestoreError("procs", "repeated vpn in TLB");
    }
  }
  hits_ = r.U64();
  misses_ = r.U64();
}

}  // namespace vusion
