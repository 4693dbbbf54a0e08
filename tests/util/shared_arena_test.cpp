// SharedArena<T>: the one publication machinery behind the fleet-wide
// token arena (T = char, util::SharedInterner) and the template forest
// (T = std::uint32_t, logproc::SharedSignatureForest). Every case runs
// over both element types and pins the contract in util/shared_arena.h:
// dense stable idempotent ids, prefixes and lengths that never collide,
// views stable across growth, capacity caps that reject (and count)
// instead of corrupting, a cap-exempt registrar path, and lock-free
// readers racing admission (the stress cases are what tools/ci.sh runs
// under ThreadSanitizer: ctest -L forest).
#include "util/shared_arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace nfv::util {
namespace {

template <typename T>
class SharedArenaTest : public ::testing::Test {
 protected:
  using Arena = SharedArena<T>;
  /// What one admitted value is held in by the test: a token string or a
  /// template's token-id sequence.
  using Value = std::conditional_t<std::is_same_v<T, char>, std::string,
                                   std::vector<std::uint32_t>>;

  /// The defaults SharedInterner passes, large enough to never bind here.
  static typename Arena::Config uncapped() { return {1u << 20, 64u << 20}; }

  /// Deterministic distinct value for index `i`, of irregular length so
  /// chunk packing is irregular: "token_<i>" (7+ bytes), or a sequence of
  /// 2..5 words whose first word is `i`.
  static Value value(std::size_t i) {
    if constexpr (std::is_same_v<T, char>) {
      return "token_" + std::to_string(i);
    } else {
      std::vector<std::uint32_t> words;
      const std::size_t length = 2 + i % 4;
      words.push_back(static_cast<std::uint32_t>(i));
      for (std::size_t k = 1; k < length; ++k) {
        words.push_back(static_cast<std::uint32_t>(i * 2654435761u + k));
      }
      return words;
    }
  }

  static typename Arena::View prefix(const Value& v, std::size_t n) {
    return typename Arena::View(v.data(), n);
  }

  static void expect_view_equals(const Arena& arena, std::uint32_t id,
                                 const Value& expected) {
    const typename Arena::View v = arena.view(id);
    ASSERT_EQ(v.size(), expected.size()) << "id " << id;
    EXPECT_TRUE(std::equal(v.begin(), v.end(), expected.begin()))
        << "id " << id;
  }
};

template <typename T>
class SharedArenaStressTest : public SharedArenaTest<T> {};

using ElementTypes = ::testing::Types<char, std::uint32_t>;
TYPED_TEST_SUITE(SharedArenaTest, ElementTypes);
TYPED_TEST_SUITE(SharedArenaStressTest, ElementTypes);

TYPED_TEST(SharedArenaTest, InternIsDenseStableAndIdempotent) {
  typename TestFixture::Arena arena(TestFixture::uncapped());
  constexpr std::size_t kValues = 100;
  for (std::size_t i = 0; i < kValues; ++i) {
    ASSERT_EQ(arena.intern(TestFixture::value(i)),
              static_cast<std::uint32_t>(i))
        << "ids must be dense";
  }
  EXPECT_EQ(arena.size(), kValues);
  for (std::size_t i = 0; i < kValues; ++i) {
    const auto v = TestFixture::value(i);
    // Idempotent: re-intern and lock-free find agree on the same id.
    EXPECT_EQ(arena.intern(v), static_cast<std::uint32_t>(i));
    EXPECT_EQ(arena.find(v), static_cast<std::uint32_t>(i));
    TestFixture::expect_view_equals(arena, static_cast<std::uint32_t>(i), v);
  }
  EXPECT_EQ(arena.find(TestFixture::value(kValues)),
            TestFixture::Arena::kNotFound);
  EXPECT_EQ(arena.size(), kValues);  // no duplicates admitted
  EXPECT_EQ(arena.rejected(), 0u);
}

TYPED_TEST(SharedArenaTest, PrefixAndLengthDisambiguate) {
  typename TestFixture::Arena arena(TestFixture::uncapped());
  const auto longer = TestFixture::value(3);  // 7 bytes or 5 words
  ASSERT_GE(longer.size(), 4u);
  const std::uint32_t long_id = arena.intern(longer);
  // A strict prefix is a DIFFERENT value, not a hit on the longer one.
  EXPECT_EQ(arena.find(TestFixture::prefix(longer, 2)),
            TestFixture::Arena::kNotFound);
  const std::uint32_t short_id = arena.intern(TestFixture::prefix(longer, 2));
  EXPECT_NE(long_id, short_id);
  EXPECT_EQ(arena.find(TestFixture::prefix(longer, 2)), short_id);
  EXPECT_EQ(arena.find(longer), long_id);
  EXPECT_EQ(arena.view(short_id).size(), 2u);
}

TYPED_TEST(SharedArenaTest, ViewsStayStableAcrossGrowth) {
  typename TestFixture::Arena arena(TestFixture::uncapped());
  // Capture early views, then force id-table growth (well past the
  // initial 64 slots), element-chunk doublings and entry-block rollovers
  // (4,096 entries per block).
  constexpr std::size_t kEarly = 8;
  std::vector<typename TestFixture::Arena::View> early;
  for (std::size_t i = 0; i < kEarly; ++i) {
    early.push_back(arena.view(arena.intern(TestFixture::value(i))));
  }
  constexpr std::size_t kValues = 20000;
  std::size_t elements = 0;
  for (std::size_t i = 0; i < kValues; ++i) {
    const auto v = TestFixture::value(i);
    ASSERT_EQ(arena.intern(v), static_cast<std::uint32_t>(i));
    elements += v.size();
  }
  for (std::size_t i = 0; i < kEarly; ++i) {
    // The pointer captured before any growth must still be the live one.
    const auto now = arena.view(static_cast<std::uint32_t>(i));
    EXPECT_EQ(early[i].data(), now.data()) << "view moved on growth";
    TestFixture::expect_view_equals(arena, static_cast<std::uint32_t>(i),
                                    TestFixture::value(i));
  }
  EXPECT_EQ(arena.find(TestFixture::value(kValues - 1)), kValues - 1);
  EXPECT_EQ(arena.elements(), elements);
  EXPECT_GT(arena.bytes(), elements * sizeof(TypeParam) +
                               kValues * sizeof(std::uint32_t));
}

TYPED_TEST(SharedArenaTest, EntryCapRejectsAndCounts) {
  typename TestFixture::Arena::Config config = TestFixture::uncapped();
  config.max_entries = 4;
  typename TestFixture::Arena arena(config);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(arena.intern(TestFixture::value(i)),
              static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(arena.intern(TestFixture::value(4)),
            TestFixture::Arena::kNotFound);
  EXPECT_EQ(arena.rejected(), 1u);
  EXPECT_EQ(arena.size(), 4u);
  // Existing values stay intact after a rejection: find and re-intern
  // still hit without counting as admissions or rejections.
  EXPECT_EQ(arena.find(TestFixture::value(0)), 0u);
  EXPECT_EQ(arena.intern(TestFixture::value(0)), 0u);
  EXPECT_EQ(arena.find(TestFixture::value(4)), TestFixture::Arena::kNotFound);
  EXPECT_EQ(arena.rejected(), 1u);
}

TYPED_TEST(SharedArenaTest, ElementCapRejectsAndCounts) {
  const auto a = TestFixture::value(0);
  const auto b = TestFixture::value(1);
  const auto c = TestFixture::value(2);
  typename TestFixture::Arena::Config config = TestFixture::uncapped();
  config.max_elements = a.size() + b.size() + c.size() - 1;
  typename TestFixture::Arena arena(config);
  EXPECT_EQ(arena.intern(a), 0u);
  EXPECT_EQ(arena.intern(b), 1u);
  // One element short: the oversized value is rejected...
  EXPECT_EQ(arena.intern(c), TestFixture::Arena::kNotFound);
  EXPECT_EQ(arena.rejected(), 1u);
  EXPECT_EQ(arena.elements(), a.size() + b.size());
  // ...while a value that still fits is admitted.
  EXPECT_EQ(arena.intern(TestFixture::prefix(c, c.size() - 2)), 2u);
  EXPECT_EQ(arena.rejected(), 1u);
}

TYPED_TEST(SharedArenaTest, RegistrarIsCapExempt) {
  typename TestFixture::Arena::Config config = TestFixture::uncapped();
  config.max_entries = 1;
  typename TestFixture::Arena arena(config);
  const auto a = TestFixture::value(0);
  const auto b = TestFixture::value(1);
  EXPECT_EQ(arena.intern(a), 0u);
  EXPECT_EQ(arena.intern(b), TestFixture::Arena::kNotFound);
  // The registrar path admits past the cap (pre-seeding, promotion) —
  // and the admitted value is then a normal hit for intern() and find().
  EXPECT_EQ(arena.register_entry(b), 1u);
  EXPECT_EQ(arena.intern(b), 1u);
  EXPECT_EQ(arena.find(b), 1u);
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_EQ(arena.rejected(), 1u);
}

// One registrar publishes values in order (forcing chunk rollovers and
// several table growths) while lock-free readers chase the published
// frontier: every find() on a published value must hit, and its view()
// must round-trip the exact elements while the table is being swapped.
// TSan-clean.
TYPED_TEST(SharedArenaStressTest, LockFreeReadersRaceRegistrar) {
  constexpr std::size_t kValues = 6000;
  constexpr std::size_t kReaders = 3;
  typename TestFixture::Arena arena(TestFixture::uncapped());
  std::atomic<std::uint32_t> published{0};
  std::atomic<bool> done{false};

  std::thread registrar([&] {
    for (std::size_t i = 0; i < kValues; ++i) {
      ASSERT_NE(arena.intern(TestFixture::value(i)),
                TestFixture::Arena::kNotFound);
      published.store(static_cast<std::uint32_t>(i + 1),
                      std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> hits{0};
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::uint64_t local_hits = 0;
      std::size_t i = r;
      while (!done.load(std::memory_order_acquire) || i < kValues) {
        const std::uint32_t upto = published.load(std::memory_order_acquire);
        if (i >= upto) {
          if (done.load(std::memory_order_acquire)) break;
          continue;
        }
        const auto v = TestFixture::value(i);
        // Published before we looked: find() must hit, and the id must
        // round-trip through view() to the same elements.
        const std::uint32_t id = arena.find(v);
        ASSERT_NE(id, TestFixture::Arena::kNotFound);
        TestFixture::expect_view_equals(arena, id, v);
        ++local_hits;
        i += kReaders;
      }
      hits.fetch_add(local_hits, std::memory_order_relaxed);
    });
  }
  registrar.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GE(hits.load(), kValues / kReaders);
  EXPECT_EQ(arena.size(), kValues);
}

// Many "vPE threads" admit an overlapping vocabulary concurrently: the
// double-checked admission must assign exactly one id per distinct
// value, and every thread must agree on it. TSan-clean.
TYPED_TEST(SharedArenaStressTest, ConcurrentAdmissionsAgreeOnIds) {
  constexpr std::size_t kThreads = 4;
  // Prime, so every per-thread stride below is coprime with it and each
  // thread's walk visits the whole vocabulary.
  constexpr std::size_t kVocab = 701;
  typename TestFixture::Arena arena(TestFixture::uncapped());
  std::vector<std::vector<std::uint32_t>> ids(
      kThreads, std::vector<std::uint32_t>(kVocab));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Different strides so admissions interleave instead of one thread
      // winning every race.
      for (std::size_t k = 0; k < kVocab; ++k) {
        const std::size_t i = (k * (t + 1)) % kVocab;
        ids[t][i] = arena.intern(TestFixture::value(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(arena.size(), kVocab);
  for (std::size_t t = 1; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kVocab; ++i) {
      ASSERT_EQ(ids[t][i], ids[0][i]) << "value " << i;
      ASSERT_LT(ids[t][i], TestFixture::Arena::kPrivateBase);
    }
  }
}

}  // namespace
}  // namespace nfv::util
