// Line-granular sparse byte memory: the core's committed memory and the
// generator's and text importer's oracles. Like SAMIE-LSQ's entries it
// keeps state per line, not per address or page: written bytes live in
// 64-byte blocks in one contiguous array, found through an open-addressed
// index (linear probing, Fibonacci hash) behind a most-recently-used
// block check. Bytes compose little-endian. An unwritten byte reads as 0;
// a block is allocated on its first write, never on a read.
//
// read() and write() assert mem_access_ok(addr, bytes), so an access never
// leaves its block. Inputs are checked where they enter: the importer per
// line, TraceSource::open_samt per record, the generator per profile.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/types.h"

namespace samie {

/// The memory-access rule every trace consumer relies on: a load or
/// store moves 4 or 8 bytes from a size-aligned address.
[[nodiscard]] constexpr bool mem_access_ok(Addr addr,
                                           std::uint64_t bytes) noexcept {
  return (bytes == 4 || bytes == 8) && addr % bytes == 0;
}

class SparseMemory {
 public:
  static constexpr std::uint32_t kBlockBytes = 64;

  void write(Addr addr, std::uint32_t bytes, std::uint64_t value) {
    assert(mem_access_ok(addr, bytes));
    std::uint8_t* p = block_for_write(addr / kBlockBytes) + addr % kBlockBytes;
    if (bytes == 8) std::memcpy(p, &value, 8);
    else std::memcpy(p, &value, 4);
  }

  /// Not const: a hit moves the most-recently-used block.
  [[nodiscard]] std::uint64_t read(Addr addr, std::uint32_t bytes) {
    assert(mem_access_ok(addr, bytes));
    const std::uint8_t* block = find(addr / kBlockBytes);
    std::uint64_t v = 0;
    if (block == nullptr) return v;
    if (bytes == 8) std::memcpy(&v, block + addr % kBlockBytes, 8);
    else std::memcpy(&v, block + addr % kBlockBytes, 4);
    return v;
  }

  /// Blocks allocated so far (one per 64-byte block ever written).
  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_.size(); }

 private:
  static_assert(std::endian::native == std::endian::little,
                "SparseMemory composes values by memcpy");
  using Block = std::array<std::uint8_t, kBlockBytes>;
  static constexpr std::uint64_t kNoKey = ~0ULL;  ///< addr / 64 never is
  struct Slot {
    std::uint64_t key = kNoKey;
    std::uint32_t block = 0;
  };

  /// The index slot holding `key`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t probe(std::uint64_t key) const noexcept {
    const std::size_t mask = index_.size() - 1;
    auto i = static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (index_[i].key != key && index_[i].key != kNoKey) i = (i + 1) & mask;
    return i;
  }

  [[nodiscard]] const std::uint8_t* find(std::uint64_t key) {
    if (key != mru_key_) {
      if (index_.empty()) return nullptr;
      const Slot& s = index_[probe(key)];
      if (s.key == kNoKey) return nullptr;
      mru_key_ = key;
      mru_block_ = s.block;
    }
    return blocks_[mru_block_].data();
  }

  [[nodiscard]] std::uint8_t* block_for_write(std::uint64_t key) {
    if (key != mru_key_) {
      // Keep the index at most half full so probe runs stay short.
      if (2 * (blocks_.size() + 1) > index_.size()) grow();
      Slot& s = index_[probe(key)];
      if (s.key == kNoKey) {
        s = Slot{key, static_cast<std::uint32_t>(blocks_.size())};
        blocks_.emplace_back();  // zero-filled
      }
      mru_key_ = key;
      mru_block_ = s.block;
    }
    return blocks_[mru_block_].data();
  }

  void grow() {
    const std::vector<Slot> old = std::move(index_);
    index_.assign(old.empty() ? 64 : 2 * old.size(), Slot{});
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(index_.size()));
    for (const Slot& s : old) {
      if (s.key != kNoKey) index_[probe(s.key)] = s;
    }
  }

  std::vector<Block> blocks_;
  std::vector<Slot> index_;  ///< power-of-two size, or empty
  unsigned shift_ = 64;      ///< 64 - log2(index_.size())
  std::uint64_t mru_key_ = kNoKey;
  std::uint32_t mru_block_ = 0;
};

}  // namespace samie
