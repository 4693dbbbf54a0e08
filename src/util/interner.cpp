#include "util/interner.h"

#include <cstring>

#include "util/check.h"

namespace nfv::util {

namespace {

constexpr std::size_t kInitialSlots = 64;  // power of two
constexpr std::uint64_t kSeed = 0x9E3779B97F4A7C15ull;

inline std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer: cheap and well-distributed for short keys.
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

inline std::uint64_t load64(const char* p, std::size_t n) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, n);
  return v;
}

}  // namespace

std::uint64_t StringInterner::hash_bytes(std::string_view text) {
  // Unaligned 8-byte chunks folded with multiply-xor; syslog tokens are
  // short (typically <= 16 bytes) so this is one or two rounds.
  std::uint64_t h = kSeed ^ (static_cast<std::uint64_t>(text.size()) << 1);
  const char* p = text.data();
  std::size_t n = text.size();
  while (n >= 8) {
    h = mix64(h ^ load64(p, 8));
    p += 8;
    n -= 8;
  }
  if (n > 0) h = mix64(h ^ load64(p, n));
  return h;
}

std::uint32_t StringInterner::find(std::string_view text) const {
  return find_hashed(text, hash_bytes(text));
}

std::uint32_t StringInterner::find_hashed(std::string_view text,
                                          std::uint64_t hash) const {
  if (slots_.empty()) return kNotFound;  // nothing interned yet
  std::size_t slot = static_cast<std::size_t>(hash) & mask_;
  while (true) {
    const std::uint32_t stored = slots_[slot];
    if (stored == 0) return kNotFound;
    const std::uint32_t id = stored - 1;
    if (hashes_[id] == hash && equals(id, text)) return id;
    slot = (slot + 1) & mask_;
  }
}

std::uint32_t StringInterner::intern(std::string_view text) {
  return intern_hashed(text, hash_bytes(text));
}

std::uint32_t StringInterner::intern_hashed(std::string_view text,
                                            std::uint64_t hash) {
  if (slots_.empty()) grow_table();  // first intern allocates the slots
  std::size_t slot = static_cast<std::size_t>(hash) & mask_;
  while (true) {
    const std::uint32_t stored = slots_[slot];
    if (stored == 0) break;
    const std::uint32_t id = stored - 1;
    if (hashes_[id] == hash && equals(id, text)) return id;
    slot = (slot + 1) & mask_;
  }

  NFV_CHECK(entries_.size() < kNotFound, "interner id space exhausted");
  NFV_CHECK(arena_.size() + text.size() <= 0xFFFFFFFFull,
            "interner arena exceeds 4 GiB");
  const auto id = static_cast<std::uint32_t>(entries_.size());
  Entry entry;
  entry.offset = static_cast<std::uint32_t>(arena_.size());
  entry.length = static_cast<std::uint32_t>(text.size());
  arena_.insert(arena_.end(), text.begin(), text.end());
  entries_.push_back(entry);
  hashes_.push_back(hash);
  slots_[slot] = id + 1;

  // Keep load factor under ~0.75 so probe chains stay short.
  if ((entries_.size() + 1) * 4 > slots_.size() * 3) grow_table();
  return id;
}

void StringInterner::grow_table() {
  const std::size_t new_size =
      slots_.empty() ? kInitialSlots : slots_.size() * 2;
  std::vector<std::uint32_t> fresh(new_size, 0);
  const std::size_t new_mask = new_size - 1;
  for (std::uint32_t id = 0; id < entries_.size(); ++id) {
    std::size_t slot = static_cast<std::size_t>(hashes_[id]) & new_mask;
    while (fresh[slot] != 0) slot = (slot + 1) & new_mask;
    fresh[slot] = id + 1;
  }
  slots_ = std::move(fresh);
  mask_ = new_mask;
}

// ---------------------------------------------------------------------------
// SharedInterner

SharedInterner::SharedInterner() : SharedInterner(Config{}) {}

SharedInterner::SharedInterner(Config config)
    : SharedArena<char>({config.max_tokens, config.max_bytes}) {
  // Reserved tree token ids (see signature_tree.h): the wildcard and the
  // empty-line placeholder must be ids 0 and 1 in every tier.
  register_token("<*>");
  register_token("<empty>");
}

// ---------------------------------------------------------------------------
// ScopedInterner

std::uint32_t ScopedInterner::find_hashed(std::string_view text,
                                          std::uint64_t hash) const {
  ++stats_.lookups;
  if (shared_ == nullptr) return private_.find_hashed(text, hash);
  // Private first: it is tiny (usually empty — one cache-resident slot
  // load) and must win when a token exists in both tiers so this tree's
  // published ids never change (overflow promotion, file comment).
  if (private_.size() != 0) {
    const std::uint32_t id = private_.find_hashed(text, hash);
    if (id != kNotFound) return kPrivateBase + id;
  }
  return shared_->find_hashed(text, hash);
}

std::uint32_t ScopedInterner::intern_hashed(std::string_view text,
                                            std::uint64_t hash) {
  ++stats_.lookups;
  if (shared_ == nullptr) return private_.intern_hashed(text, hash);
  if (private_.size() != 0) {
    const std::uint32_t id = private_.find_hashed(text, hash);
    if (id != kNotFound) return kPrivateBase + id;
  }
  {
    const std::uint32_t id = shared_->find_hashed(text, hash);
    if (id != kNotFound) return id;
  }
  // Cold miss: ask the arena to admit (mutex); a capacity rejection is
  // remembered by spilling into the private overflow, so this token
  // never reaches the mutex path again from this tree.
  ++stats_.slow_probes;
  const std::uint32_t shared_id = shared_->intern_hashed(text, hash);
  if (shared_id != kNotFound) {
    ++stats_.shared_admissions;
    return shared_id;
  }
  ++stats_.private_spills;
  return kPrivateBase + private_.intern_hashed(text, hash);
}

}  // namespace nfv::util
