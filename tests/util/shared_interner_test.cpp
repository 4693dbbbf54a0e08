// SharedInterner / ScopedInterner: the token-only contracts on top of the
// shared arena (whose publication machinery util/shared_arena_test.cpp
// pins for tokens and templates alike). The arena pre-registers the
// tree's reserved tokens, capacity rejections spill into the per-view
// private overflow and never re-take the arena mutex, and a privately
// spilled token later promoted into the arena does not change the ids an
// existing view already handed out. An interner, and so a view's private
// tier, owns no bytes until its first admission.
#include "util/interner.h"

#include <gtest/gtest.h>

#include <string>

namespace nfv::util {
namespace {

TEST(SharedInternerTest, ReservedTreeTokensArePreRegistered) {
  SharedInterner arena;
  EXPECT_EQ(arena.find("<*>"), 0u);
  EXPECT_EQ(arena.find("<empty>"), 1u);
  EXPECT_EQ(arena.size(), 2u);
}

TEST(ScopedInternerTest, NoArenaDegeneratesToPlainInterner) {
  ScopedInterner view;
  EXPECT_FALSE(view.shared_mode());
  EXPECT_EQ(view.intern("<*>"), 0u);
  EXPECT_EQ(view.intern("<empty>"), 1u);
  EXPECT_EQ(view.intern("alpha"), 2u);
  EXPECT_EQ(view.view(2u), "alpha");
  EXPECT_TRUE(view.is_private(2u));
  EXPECT_EQ(view.private_size(), 3u);
}

TEST(ScopedInternerTest, SharedIdsAreIdStableAcrossViews) {
  SharedInterner arena;
  ScopedInterner a(&arena);
  ScopedInterner b(&arena);
  // Different intern orders per view: shared ids still agree because the
  // arena assigns them fleet-wide in first-admission order.
  const std::uint32_t a_link = a.intern("linkdown");
  const std::uint32_t a_peer = a.intern("peerflap");
  EXPECT_EQ(b.intern("peerflap"), a_peer);
  EXPECT_EQ(b.intern("linkdown"), a_link);
  EXPECT_FALSE(a.is_private(a_link));
  EXPECT_LT(a_link, ScopedInterner::kPrivateBase);
  EXPECT_EQ(a.view(a_link), "linkdown");
  EXPECT_EQ(b.view(a_link), "linkdown");
  EXPECT_EQ(a.stats().shared_admissions, 2u);
  EXPECT_EQ(b.stats().shared_admissions, 0u);
}

TEST(ScopedInternerTest, CapacityRejectionSpillsPrivateWithoutReprobing) {
  SharedInterner::Config config;
  config.max_tokens = 3;  // room for exactly one admission past <*>/<empty>
  SharedInterner arena(config);
  ScopedInterner view(&arena);
  EXPECT_LT(view.intern("shared_one"), ScopedInterner::kPrivateBase);

  const std::uint32_t spilled = view.intern("overflow_tok");
  EXPECT_GE(spilled, ScopedInterner::kPrivateBase);
  EXPECT_TRUE(view.is_private(spilled));
  EXPECT_EQ(view.view(spilled), "overflow_tok");
  EXPECT_EQ(view.stats().private_spills, 1u);
  const std::uint64_t slow_after_spill = view.stats().slow_probes;

  // Re-interning the rejected token must resolve from the private tier
  // without touching the arena's mutex path again.
  EXPECT_EQ(view.intern("overflow_tok"), spilled);
  EXPECT_EQ(view.find("overflow_tok"), spilled);
  EXPECT_EQ(view.stats().slow_probes, slow_after_spill);
  EXPECT_EQ(arena.rejected(), 1u);
}

TEST(ScopedInternerTest, OverflowPromotionKeepsExistingIdsStable) {
  SharedInterner::Config config;
  config.max_tokens = 3;
  SharedInterner arena(config);
  ScopedInterner old_view(&arena);
  EXPECT_LT(old_view.intern("filler"), ScopedInterner::kPrivateBase);
  const std::uint32_t private_id = old_view.intern("latecomer");
  EXPECT_GE(private_id, ScopedInterner::kPrivateBase);

  // The token is later admitted fleet-wide (registrar promotion). A NEW
  // view resolves the shared id; the OLD view keeps its private id —
  // private takes precedence — so every id it already published into
  // signatures remains valid, and both render the same text.
  const std::uint32_t shared_id = arena.register_token("latecomer");
  EXPECT_LT(shared_id, ScopedInterner::kPrivateBase);
  ScopedInterner new_view(&arena);
  EXPECT_EQ(new_view.intern("latecomer"), shared_id);
  EXPECT_EQ(old_view.intern("latecomer"), private_id);
  EXPECT_EQ(old_view.find("latecomer"), private_id);
  EXPECT_EQ(old_view.view(private_id), new_view.view(shared_id));
}

// A fresh interner owns nothing until its first intern(): no slot table,
// 0 bytes, and every read is safe on the empty state. The first intern
// allocates and later admissions grow the table past its first size.
TEST(StringInternerTest, TableIsAllocatedByTheFirstIntern) {
  StringInterner interner;
  EXPECT_EQ(interner.bytes(), 0u);
  EXPECT_EQ(interner.size(), 0u);
  EXPECT_EQ(interner.find("alpha"), StringInterner::kNotFound);
  EXPECT_EQ(interner.find(""), StringInterner::kNotFound);

  EXPECT_EQ(interner.intern("alpha"), 0u);
  EXPECT_GT(interner.bytes(), 0u);
  EXPECT_EQ(interner.find("alpha"), 0u);
  EXPECT_EQ(interner.view(0), "alpha");
  for (std::uint32_t i = 1; i < 200; ++i) {
    ASSERT_EQ(interner.intern("tok" + std::to_string(i)), i);
  }
  for (std::uint32_t i = 1; i < 200; ++i) {
    ASSERT_EQ(interner.find("tok" + std::to_string(i)), i);
  }
  EXPECT_EQ(interner.find("alpha"), 0u);
  EXPECT_EQ(interner.find("missing"), StringInterner::kNotFound);

  // Copies of an empty interner are empty and independent.
  const StringInterner empty;
  StringInterner copy = empty;
  EXPECT_EQ(copy.find("alpha"), StringInterner::kNotFound);
  EXPECT_EQ(copy.intern("beta"), 0u);
  EXPECT_EQ(empty.bytes(), 0u);
}

// Over an arena the private tier stays unallocated (0 bytes) while every
// token resolves shared, lookups of unknown tokens are safe on it, and
// the first spill allocates it and interns correctly.
TEST(ScopedInternerTest, NeverSpilledPrivateTierOwnsNoBytes) {
  SharedInterner::Config config;
  config.max_tokens = 4;  // <*>, <empty> and two admissions
  SharedInterner arena(config);
  ScopedInterner view(&arena);
  EXPECT_EQ(view.private_bytes(), 0u);
  EXPECT_EQ(view.find("alpha"), ScopedInterner::kNotFound);
  EXPECT_LT(view.intern("alpha"), ScopedInterner::kPrivateBase);
  EXPECT_LT(view.intern("beta"), ScopedInterner::kPrivateBase);
  EXPECT_EQ(view.find("gamma"), ScopedInterner::kNotFound);
  EXPECT_EQ(view.private_size(), 0u);
  EXPECT_EQ(view.private_bytes(), 0u);

  const std::uint32_t gamma = view.intern("gamma");
  EXPECT_EQ(gamma, ScopedInterner::kPrivateBase);
  EXPECT_GT(view.private_bytes(), 0u);
  EXPECT_EQ(view.private_size(), 1u);
  EXPECT_EQ(view.view(gamma), "gamma");
  EXPECT_EQ(view.find("gamma"), gamma);
  EXPECT_EQ(view.intern("delta"), ScopedInterner::kPrivateBase + 1);
  EXPECT_EQ(view.find("alpha"), arena.find("alpha"));
}

TEST(ScopedInternerTest, LookupCounterCountsPublicCalls) {
  SharedInterner arena;
  ScopedInterner view(&arena);
  view.intern("a");
  view.find("a");
  view.find("missing");
  EXPECT_EQ(view.stats().lookups, 3u);
  EXPECT_EQ(view.stats().slow_probes, 1u);  // only the cold admission
}

}  // namespace
}  // namespace nfv::util
