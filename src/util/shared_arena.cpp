#include "util/shared_arena.h"

#include <algorithm>

#include "util/check.h"
#include "util/interner.h"

namespace nfv::util {

namespace {

constexpr std::size_t kInitialSlots = 64;  // power of two
// Element chunks double from 4 KiB up to 1 MiB, counted in bytes.
constexpr std::size_t kFirstChunkBytes = 4096;
constexpr std::size_t kMaxChunkBytes = std::size_t{1} << 20;

}  // namespace

template <typename T>
std::uint64_t SharedArena<T>::hash_of(View value) {
  // The token interners' mix over the raw element bytes, so every tier
  // and element type shares one well-tested hash.
  return StringInterner::hash_bytes(
      std::string_view(reinterpret_cast<const char*>(value.data()),
                       value.size() * sizeof(T)));
}

template <typename T>
SharedArena<T>::SharedArena(Config config) : config_(config) {
  auto table = std::make_unique<Table>(kInitialSlots);
  table_bytes_.store(kInitialSlots * sizeof(std::uint32_t),
                     std::memory_order_relaxed);
  table_.store(table.get(), std::memory_order_release);
  tables_.push_back(std::move(table));
}

template <typename T>
SharedArena<T>::~SharedArena() {
  const std::uint32_t n = size_.load(std::memory_order_acquire);
  const std::size_t used_blocks =
      (static_cast<std::size_t>(n) + kBlockSize - 1) >> kBlockShift;
  for (std::size_t b = 0; b < used_blocks; ++b) {
    delete[] blocks_[b].load(std::memory_order_relaxed);
  }
}

template <typename T>
std::uint32_t SharedArena<T>::probe(const Table& table, View value,
                                    std::uint64_t hash) const {
  std::size_t slot = static_cast<std::size_t>(hash) & table.mask;
  while (true) {
    const std::uint32_t stored =
        table.slots[slot].load(std::memory_order_acquire);
    if (stored == 0) return kNotFound;
    const std::uint32_t id = stored - 1;
    const Entry& e = entry(id);
    if (e.hash == hash && e.length == value.size() &&
        std::equal(e.data, e.data + e.length, value.data())) {
      return id;
    }
    slot = (slot + 1) & table.mask;
  }
}

template <typename T>
std::uint32_t SharedArena<T>::find(View value) const {
  return find_hashed(value, hash_of(value));
}

template <typename T>
std::uint32_t SharedArena<T>::find_hashed(View value,
                                          std::uint64_t hash) const {
  return probe(*table_.load(std::memory_order_acquire), value, hash);
}

template <typename T>
std::uint32_t SharedArena<T>::intern(View value) {
  return intern_hashed(value, hash_of(value));
}

template <typename T>
std::uint32_t SharedArena<T>::intern_hashed(View value, std::uint64_t hash) {
  const std::uint32_t found = find_hashed(value, hash);
  if (found != kNotFound) return found;
  return admit(value, hash, /*enforce_caps=*/true);
}

template <typename T>
std::uint32_t SharedArena<T>::register_entry(View value) {
  const std::uint64_t hash = hash_of(value);
  const std::uint32_t found = find_hashed(value, hash);
  if (found != kNotFound) return found;
  return admit(value, hash, /*enforce_caps=*/false);
}

template <typename T>
const T* SharedArena<T>::append(View value) {
  const std::size_t count = value.size();
  if (chunk_cap_ - chunk_used_ < count) {
    // Chunks double up to 1 MiB so small fleets stay small; elements in
    // older chunks never move (published views stay valid forever).
    std::size_t cap = chunks_.empty() ? kFirstChunkBytes / sizeof(T)
                                      : chunk_cap_ * 2;
    if (cap > kMaxChunkBytes / sizeof(T)) cap = kMaxChunkBytes / sizeof(T);
    if (cap < count) cap = count;
    chunks_.push_back(std::make_unique<T[]>(cap));
    chunk_cap_ = cap;
    chunk_used_ = 0;
    chunk_bytes_.fetch_add(cap * sizeof(T), std::memory_order_relaxed);
  }
  T* dst = chunks_.back().get() + chunk_used_;
  std::copy(value.begin(), value.end(), dst);
  chunk_used_ += count;
  return dst;
}

template <typename T>
std::uint32_t SharedArena<T>::admit(View value, std::uint64_t hash,
                                    bool enforce_caps) {
  std::lock_guard<std::mutex> lock(mu_);
  // Double-check under the lock: another thread may have admitted the
  // value between our lock-free miss and here.
  Table* table = table_.load(std::memory_order_relaxed);
  const std::uint32_t raced = probe(*table, value, hash);
  if (raced != kNotFound) return raced;

  const std::uint32_t count = size_.load(std::memory_order_relaxed);
  if (enforce_caps &&
      (count >= config_.max_entries ||
       element_count_.load(std::memory_order_relaxed) + value.size() >
           config_.max_elements)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return kNotFound;
  }
  NFV_CHECK(count < kPrivateBase &&
                static_cast<std::size_t>(count) < kMaxBlocks * kBlockSize,
            "shared arena id space exhausted");
  NFV_CHECK(value.size() <= 0xFFFFFFFFull, "shared arena entry too long");

  const std::size_t block = count >> kBlockShift;
  Entry* entries = blocks_[block].load(std::memory_order_relaxed);
  if (entries == nullptr) {
    entries = new Entry[kBlockSize];
    blocks_[block].store(entries, std::memory_order_release);
  }
  Entry& e = entries[count & (kBlockSize - 1)];
  e.data = append(value);
  e.length = static_cast<std::uint32_t>(value.size());
  e.hash = hash;
  element_count_.fetch_add(value.size(), std::memory_order_relaxed);

  // Grow BEFORE publishing so the new id is inserted exactly once, into
  // the table every subsequent reader will load. Readers racing the swap
  // keep probing the retired table — every previously published id is
  // still in it, and this id simply reads as a transient miss.
  if ((static_cast<std::size_t>(count) + 2) * 4 > table->slots.size() * 3) {
    grow_table_locked(count);
    table = table_.load(std::memory_order_relaxed);
  }

  std::size_t slot = static_cast<std::size_t>(hash) & table->mask;
  while (table->slots[slot].load(std::memory_order_relaxed) != 0) {
    slot = (slot + 1) & table->mask;
  }
  // Publication point: the release-store makes the entry (and its block
  // pointer and elements) visible to any reader that acquires this slot.
  table->slots[slot].store(count + 1, std::memory_order_release);
  size_.store(count + 1, std::memory_order_release);
  return count;
}

template <typename T>
void SharedArena<T>::grow_table_locked(std::size_t count) {
  Table* old = table_.load(std::memory_order_relaxed);
  auto fresh = std::make_unique<Table>(old->slots.size() * 2);
  for (std::uint32_t id = 0; id < count; ++id) {
    const Entry& e = entry(id);
    std::size_t slot = static_cast<std::size_t>(e.hash) & fresh->mask;
    while (fresh->slots[slot].load(std::memory_order_relaxed) != 0) {
      slot = (slot + 1) & fresh->mask;
    }
    fresh->slots[slot].store(id + 1, std::memory_order_relaxed);
  }
  table_bytes_.fetch_add(fresh->slots.size() * sizeof(std::uint32_t),
                         std::memory_order_relaxed);
  // The old table stays resident (retired in tables_) so readers still
  // probing it never touch freed memory; total retired memory is bounded
  // by the geometric growth (< one live table's worth).
  table_.store(fresh.get(), std::memory_order_release);
  tables_.push_back(std::move(fresh));
}

template <typename T>
std::size_t SharedArena<T>::bytes() const {
  const std::size_t n = size_.load(std::memory_order_acquire);
  const std::size_t blocks = (n + kBlockSize - 1) >> kBlockShift;
  return chunk_bytes_.load(std::memory_order_relaxed) +
         blocks * kBlockSize * sizeof(Entry) +
         table_bytes_.load(std::memory_order_relaxed);
}

template class SharedArena<char>;
template class SharedArena<std::uint32_t>;

}  // namespace nfv::util
