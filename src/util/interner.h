// Append-only string interners: string_view -> dense u32 id.
//
// Three tiers, built for the template-mining fast path (the signature
// tree interns every stable syslog token once and thereafter works on
// u32 ids, so the per-line hot loop never materializes a std::string):
//
//  - StringInterner: the original single-threaded interner. Ids are
//    dense (0, 1, 2, ...) in first-intern order and never change;
//    lookups are allocation-free; intern() only allocates when it
//    actually admits a new string, so a warm interner is
//    zero-allocation in steady state. A fresh interner owns no memory:
//    its hash slots are allocated by the first intern(), and find() on
//    it returns kNotFound. Value semantics: the arena stores
//    (offset, length) entries into one contiguous byte buffer, so the
//    interner can be copied and moved freely. Not thread-safe.
//
//  - SharedInterner: the fleet-wide read-mostly token arena, the char
//    instance of util::SharedArena (util/shared_arena.h, which states the
//    concurrency contract). One arena serves every per-vPE signature tree
//    of a run, so memory for the (heavily overlapping) fleet token set is
//    O(vocabulary) instead of O(vPEs x vocabulary), and shared token ids
//    are identical across vPEs ("id-stable"). find()/view()/size() are
//    lock-free from any thread; intern() takes a small mutex only on
//    first sight of a token fleet-wide and returns kNotFound once a
//    capacity cap rejects it (the caller spills to a private overflow,
//    see ScopedInterner); register_token() is the cap-exempt registrar
//    path. A view() is stable for the arena's lifetime — unlike
//    StringInterner, growth never invalidates it.
//
//  - ScopedInterner: the two-level per-tree view. Resolves against the
//    shared arena and spills tokens the arena rejects (capacity) — or
//    that predate attachment — into a private overflow range starting
//    at kPrivateBase. Single-threaded like StringInterner (it is owned
//    by one tree); only its reads/admissions AGAINST the shared arena
//    are the concurrent part, and those follow SharedInterner's
//    contract. Id-resolution order: the private table takes precedence
//    when a token exists in both tiers, so a tree's ids stay stable
//    even when a privately spilled token is later promoted into the
//    shared arena (the "overflow promotion" edge case — new trees then
//    resolve the shared id, existing trees keep their private id and
//    both render the same text). With no shared arena attached it
//    degenerates to a plain StringInterner with ids from 0 — bit-
//    compatible with the pre-arena behavior. Over an arena the private
//    tier owns 0 bytes until its first spill (private_bytes() == 0),
//    which is what a fleet of trees sharing one arena mostly holds.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/shared_arena.h"

namespace nfv::util {

class StringInterner {
 public:
  /// Returned by find() when the string has never been interned.
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  /// Id for `text`, interning it if new. Ids are dense and stable.
  std::uint32_t intern(std::string_view text);

  /// Id for `text` if already interned, else kNotFound. Never mutates.
  std::uint32_t find(std::string_view text) const;

  /// The interned bytes for an id. The view is invalidated by the next
  /// intern() that grows the arena — consume it before interning again.
  std::string_view view(std::uint32_t id) const {
    const Entry& e = entries_[id];
    return std::string_view(arena_.data() + e.offset, e.length);
  }

  std::size_t size() const { return entries_.size(); }

  /// Resident bytes (arena + entry/hash/slot tables), by capacity.
  std::size_t bytes() const {
    return arena_.capacity() + entries_.capacity() * sizeof(Entry) +
           hashes_.capacity() * sizeof(std::uint64_t) +
           slots_.capacity() * sizeof(std::uint32_t);
  }

  /// 64-bit string hash used internally; exposed so callers that already
  /// scanned the bytes can avoid a second pass (see find_hashed()). All
  /// three interner tiers share this hash, so one computation serves a
  /// private and a shared probe.
  static std::uint64_t hash_bytes(std::string_view text);

  /// find()/intern() with a caller-precomputed hash_bytes() value.
  std::uint32_t find_hashed(std::string_view text, std::uint64_t hash) const;
  std::uint32_t intern_hashed(std::string_view text, std::uint64_t hash);

 private:
  struct Entry {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  bool equals(std::uint32_t id, std::string_view text) const {
    const Entry& e = entries_[id];
    return e.length == text.size() &&
           std::string_view(arena_.data() + e.offset, e.length) == text;
  }

  void grow_table();

  std::vector<char> arena_;            // all interned bytes, back to back
  std::vector<Entry> entries_;         // id -> span within arena_
  std::vector<std::uint64_t> hashes_;  // id -> hash_bytes(view(id))
  std::vector<std::uint32_t> slots_;   // open addressing; id+1, 0 = empty
  std::size_t mask_ = 0;               // slots_.size() - 1 (power of two)
};

/// Fleet-wide shared token arena (see file comment). Ids are dense in
/// admission order and live below ScopedInterner::kPrivateBase. The
/// constructor pre-interns "<*>" (id 0) and "<empty>" (id 1) so
/// SignatureTree's reserved token ids hold in shared mode exactly as they
/// do privately — attach trees before interning anything else if you rely
/// on other specific id values.
class SharedInterner : public SharedArena<char> {
 public:
  struct Config {
    /// Admission caps on distinct shared tokens and on total token bytes
    /// (SharedArena::Config's max_entries and max_elements).
    std::size_t max_tokens = 1u << 20;
    std::size_t max_bytes = 64u << 20;
  };

  // Two overloads (not one defaulted argument): Config's member
  // initializers are only parsed once the enclosing class is complete,
  // so `Config config = {}` would not compile here.
  SharedInterner();
  explicit SharedInterner(Config config);

  /// Registrar admission, exempt from the capacity caps: pre-seeding and
  /// promotion of hot private tokens.
  std::uint32_t register_token(std::string_view text) {
    return register_entry(text);
  }
};

/// Two-level interner view: shared arena + private overflow (see file
/// comment). Single-threaded, owned by one SignatureTree.
class ScopedInterner {
 public:
  static constexpr std::uint32_t kNotFound = StringInterner::kNotFound;
  /// First private-overflow id when a shared arena is attached. Shared
  /// ids live below it; kNotFound stays above both ranges.
  static constexpr std::uint32_t kPrivateBase = SharedInterner::kPrivateBase;

  /// Probe accounting, cheap enough to keep always-on: `lookups` counts
  /// public find/intern calls (the signature tree performs exactly one
  /// per warm line — pinned by tests), `slow_probes` counts shared-arena
  /// mutex acquisitions (cold misses only; zero in steady state, even
  /// under capacity pressure, because rejected tokens are remembered in
  /// the private overflow instead of re-asking the arena).
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t slow_probes = 0;
    std::uint64_t shared_admissions = 0;
    std::uint64_t private_spills = 0;
  };

  explicit ScopedInterner(SharedInterner* shared = nullptr)
      : shared_(shared) {}

  std::uint32_t intern(std::string_view text) {
    return intern_hashed(text, StringInterner::hash_bytes(text));
  }
  std::uint32_t find(std::string_view text) const {
    return find_hashed(text, StringInterner::hash_bytes(text));
  }

  std::uint32_t find_hashed(std::string_view text, std::uint64_t hash) const;
  std::uint32_t intern_hashed(std::string_view text, std::uint64_t hash);

  std::string_view view(std::uint32_t id) const {
    if (shared_ == nullptr) return private_.view(id);
    if (id < kPrivateBase) return shared_->view(id);
    return private_.view(id - kPrivateBase);
  }

  bool shared_mode() const { return shared_ != nullptr; }
  const SharedInterner* shared() const { return shared_; }
  bool is_private(std::uint32_t id) const {
    return shared_ == nullptr || id >= kPrivateBase;
  }

  /// Tokens spilled into this view's private overflow.
  std::size_t private_size() const { return private_.size(); }
  /// Resident bytes of the private overflow tier only (the shared
  /// arena's bytes are reported once per fleet, not per view).
  std::size_t private_bytes() const { return private_.bytes(); }

  const Stats& stats() const { return stats_; }

 private:
  SharedInterner* shared_;
  StringInterner private_;
  mutable Stats stats_;
};

}  // namespace nfv::util
