// Fleet-wide append-only publication arena: a fixed sequence of T ->
// dense u32 id, readable lock-free while other threads admit.
//
// One machinery serves both fleet-wide stores of the template-mining
// path: SharedArena<char> is the token arena (util::SharedInterner, one
// entry per stable syslog token) and SharedArena<std::uint32_t> is the
// template forest (logproc::SharedSignatureForest, one entry per
// template token-id sequence over that arena's ids). Ids are dense in
// admission order and identical for every caller ("id-stable"), which
// is what makes token ids and template node ids fleet-stable.
//
// Concurrency contract:
//  - find()/view()/size() are LOCK-FREE and safe from any number of
//    threads concurrently with admissions. Published entries are
//    immutable once visible: element storage lives in stable chunks that
//    never move, entry records live in fixed-size blocks that never
//    move, and the open-addressed id table is published by
//    release-storing the slot AFTER the entry is fully written (a grown
//    table is swapped in via an atomic pointer; superseded tables are
//    retired, not freed, until destruction — an epoch scheme with the
//    epochs collapsed to the arena's lifetime).
//  - intern() takes a small mutex only on the cold miss path (first
//    sight of a value fleet-wide) to admit it — or reject it once a
//    capacity cap is reached, in which case it returns kNotFound and the
//    caller spills to private storage. A racing find() may transiently
//    miss a value that intern() is admitting; that is always safe — the
//    caller either retries through intern() or treats it as absent,
//    exactly like the reference miner treats an unseen string.
//  - register_entry() is the registrar/admin admission path: same mutex,
//    but exempt from the capacity caps (pre-seeding a fleet vocabulary,
//    promoting a hot private token).
// A view() is stable for the arena's lifetime: growth never invalidates
// it.
//
// Memory layout (bytes() reports it, and the runtime's bytes/vPE sums
// it): element chunks start at 4 KiB and double up to 1 MiB, 24-byte
// entries in 4,096-entry blocks, and a 64-slot id table that doubles
// under a 0.75 load factor, retired tables kept until destruction. The
// member definitions live in shared_arena.cpp, explicitly instantiated
// for char and std::uint32_t.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

namespace nfv::util {

template <typename T>
class SharedArena {
 public:
  /// What the arena admits and hands back: token bytes as a string_view,
  /// any other element type as a span.
  using View = std::conditional_t<std::is_same_v<T, char>, std::string_view,
                                  std::span<const T>>;

  /// Returned by find() when the value was never admitted, and by
  /// intern() when a capacity cap rejects admission.
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;
  /// Ids stay below this, so callers can layer a private id range on top
  /// (ScopedInterner's token overflow, SignatureTree's private nodes).
  static constexpr std::uint32_t kPrivateBase = 0x40000000u;

  struct Config {
    /// Admission cap on distinct entries; beyond it intern() rejects and
    /// callers spill privately. Keeps the arena read-mostly and fleet
    /// memory bounded under churn attacks (a vPE spraying unique tokens
    /// or templates).
    std::size_t max_entries;
    /// Admission cap on total elements (token bytes, template words).
    std::size_t max_elements;
  };

  explicit SharedArena(Config config);
  ~SharedArena();

  SharedArena(const SharedArena&) = delete;
  SharedArena& operator=(const SharedArena&) = delete;

  /// Lock-free: id for `value` if published, else kNotFound. Safe from
  /// any thread, concurrently with admissions.
  std::uint32_t find(View value) const;
  /// find() with a caller-precomputed StringInterner::hash_bytes() of
  /// the value's bytes (the token tiers share that hash, so one
  /// computation serves a private and a shared probe).
  std::uint32_t find_hashed(View value, std::uint64_t hash) const;

  /// Id for `value`, admitting it if new (mutex on the cold miss path
  /// only). Returns kNotFound when a capacity cap rejects admission.
  std::uint32_t intern(View value);
  std::uint32_t intern_hashed(View value, std::uint64_t hash);

  /// Registrar admission: like intern() but exempt from the caps.
  std::uint32_t register_entry(View value);

  /// The published value of an id. Stable for the arena's lifetime
  /// (element storage never moves). Lock-free, any thread.
  View view(std::uint32_t id) const {
    const Entry& e = entry(id);
    return View(e.data, e.length);
  }

  /// Published entry count. Lock-free, any thread.
  std::size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Total published elements across all entries. Lock-free, any thread.
  std::size_t elements() const {
    return element_count_.load(std::memory_order_relaxed);
  }

  /// Resident bytes: element chunks + entry blocks + the live id table
  /// (+ retired tables, which are kept until destruction). Lock-free,
  /// any thread.
  std::size_t bytes() const;

  /// Admissions rejected by the capacity caps (callers spilled).
  std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    const T* data = nullptr;
    std::uint32_t length = 0;
    std::uint64_t hash = 0;
  };

  // Entry records live in fixed blocks so a published Entry& never
  // moves; 4096 entries/block x 4096 blocks = 16M id headroom.
  static constexpr std::size_t kBlockShift = 12;
  static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
  static constexpr std::size_t kMaxBlocks = std::size_t{1} << 12;

  // Open-addressed id table (slot = id + 1, 0 = empty), swapped
  // wholesale on growth via the atomic table_ pointer.
  struct Table {
    explicit Table(std::size_t n) : slots(n), mask(n - 1) {}
    std::vector<std::atomic<std::uint32_t>> slots;
    std::size_t mask;
  };

  const Entry& entry(std::uint32_t id) const {
    // The release-store of the slot (or of size_) that published `id`
    // happened-after the block pointer and entry were written, so the
    // acquire the caller already performed makes relaxed loads safe;
    // we keep an acquire on the block pointer for clarity (free on x86).
    return blocks_[id >> kBlockShift].load(std::memory_order_acquire)
        [id & (kBlockSize - 1)];
  }

  static std::uint64_t hash_of(View value);
  std::uint32_t probe(const Table& table, View value,
                      std::uint64_t hash) const;
  /// Admission under mu_: returns the (possibly pre-existing) id, or
  /// kNotFound when enforce_caps and a cap rejects.
  std::uint32_t admit(View value, std::uint64_t hash, bool enforce_caps);
  const T* append(View value);
  void grow_table_locked(std::size_t count);

  Config config_;

  std::array<std::atomic<Entry*>, kMaxBlocks> blocks_{};
  std::atomic<std::uint32_t> size_{0};
  std::atomic<Table*> table_{nullptr};

  std::atomic<std::size_t> element_count_{0};
  std::atomic<std::size_t> chunk_bytes_{0};
  std::atomic<std::size_t> table_bytes_{0};
  std::atomic<std::uint64_t> rejected_{0};

  // Cold admission path only.
  std::mutex mu_;
  std::vector<std::unique_ptr<T[]>> chunks_;    // elements, stable
  std::size_t chunk_used_ = 0;                  // within chunks_.back()
  std::size_t chunk_cap_ = 0;
  std::vector<std::unique_ptr<Table>> tables_;  // live + retired
};

extern template class SharedArena<char>;
extern template class SharedArena<std::uint32_t>;

}  // namespace nfv::util
