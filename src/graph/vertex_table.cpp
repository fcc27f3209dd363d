#include "graph/vertex_table.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace faultyrank {

namespace {

constexpr std::size_t kMinSlots = 16;

/// Smallest index size that holds `vertices` at load ≤ 1/2.
std::size_t slots_for(std::size_t vertices) {
  return std::bit_ceil(std::max(kMinSlots, 2 * vertices));
}

}  // namespace

void VertexTable::reserve(std::size_t expected) {
  if (expected == 0) return;
  const std::size_t slots = slots_for(expected);
  if (slots > index_.size()) rehash(slots);
  fids_.reserve(expected);
  kinds_.reserve(expected);
  scanned_.reserve(expected);
}

std::size_t VertexTable::probe(const Fid& fid) const noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t slot = FidHash{}(fid) & mask;; slot = (slot + 1) & mask) {
    const Gid gid = index_[slot];
    if (gid == kInvalidGid || fids_[gid] == fid) return slot;
  }
}

void VertexTable::rehash(std::size_t slots) {
  index_.assign(slots, kInvalidGid);
  const std::size_t mask = slots - 1;
  for (Gid gid = 0; gid < fids_.size(); ++gid) {
    // FIDs are unique, so each only needs an empty slot.
    std::size_t slot = FidHash{}(fids_[gid]) & mask;
    while (index_[slot] != kInvalidGid) slot = (slot + 1) & mask;
    index_[slot] = gid;
  }
}

Gid VertexTable::push_new(std::size_t slot, const Fid& fid, ObjectKind kind,
                          bool scanned) {
  if (fids_.size() >= kInvalidGid) {
    throw std::length_error("vertex table: GID space exhausted");
  }
  if (2 * (fids_.size() + 1) > index_.size()) {
    rehash(slots_for(fids_.size() + 1));
    slot = probe(fid);
  }
  const Gid gid = static_cast<Gid>(fids_.size());
  fids_.push_back(fid);
  kinds_.push_back(kind);
  scanned_.push_back(scanned ? 1 : 0);
  index_[slot] = gid;
  return gid;
}

Gid VertexTable::intern_scanned(const Fid& fid, ObjectKind kind) {
  if (index_.empty()) rehash(kMinSlots);
  const std::size_t slot = probe(fid);
  if (const Gid gid = index_[slot]; gid != kInvalidGid) {
    kinds_[gid] = kind;
    if (scanned_[gid] < 255) ++scanned_[gid];
    return gid;
  }
  return push_new(slot, fid, kind, /*scanned=*/true);
}

Gid VertexTable::intern_referenced(const Fid& fid) {
  if (index_.empty()) rehash(kMinSlots);
  const std::size_t slot = probe(fid);
  if (const Gid gid = index_[slot]; gid != kInvalidGid) return gid;
  return push_new(slot, fid, ObjectKind::kPhantom, /*scanned=*/false);
}

Gid VertexTable::lookup(const Fid& fid) const {
  return index_.empty() ? kInvalidGid : index_[probe(fid)];
}

std::uint64_t VertexTable::bytes() const noexcept {
  return index_.capacity() * sizeof(Gid) + fids_.capacity() * sizeof(Fid) +
         kinds_.capacity() * sizeof(ObjectKind) + scanned_.capacity();
}

}  // namespace faultyrank
