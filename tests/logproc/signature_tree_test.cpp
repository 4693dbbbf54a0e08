#include "logproc/signature_tree.h"

#include <gtest/gtest.h>

#include <string>

#include "logproc/reference_miner.h"
#include "logproc/tokenizer.h"
#include "util/check.h"

namespace nfv::logproc {
namespace {

TEST(SignatureTree, SameShapeLinesShareTemplate) {
  SignatureTree tree;
  const auto a = tree.learn("peer 10.0.0.1 state changed to Idle");
  const auto b = tree.learn("peer 10.9.8.7 state changed to Idle");
  EXPECT_EQ(a, b);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(SignatureTree, DifferentMessagesGetDifferentTemplates) {
  SignatureTree tree;
  const auto a = tree.learn("peer 10.0.0.1 state changed to Idle");
  const auto b = tree.learn("fan tray 3 rpm 9000 deviates from commanded");
  EXPECT_NE(a, b);
  EXPECT_EQ(tree.size(), 2u);
}

TEST(SignatureTree, GeneralizesDisagreeingPositions) {
  SignatureTree tree;
  tree.learn("session to agg1.region2 established cleanly");
  tree.learn("session to core3.region1 established cleanly");
  ASSERT_EQ(tree.size(), 1u);
  const auto toks = tree.tokens(0);
  // Position 2 disagreed → wildcard; others survive.
  EXPECT_EQ(tree.token_text(toks[0]), "session");
  EXPECT_EQ(toks[2], kWildcardTokenId);
  EXPECT_EQ(tree.token_text(toks[3]), "established");
  EXPECT_EQ(tree.pattern(0), "session to <*> established cleanly");
}

TEST(SignatureTree, MatchCountsAccumulate) {
  SignatureTree tree;
  const auto id = tree.learn("alpha beta gamma");
  tree.learn("alpha beta gamma");
  tree.learn("alpha beta gamma");
  EXPECT_EQ(tree.match_count(id), 3u);
}

TEST(SignatureTree, DifferentTokenCountsNeverMerge) {
  SignatureTree tree;
  const auto a = tree.learn("alpha beta gamma");
  const auto b = tree.learn("alpha beta gamma delta");
  EXPECT_NE(a, b);
}

TEST(SignatureTree, MatchIsReadOnly) {
  SignatureTree tree;
  const auto id = tree.learn("peer 10.0.0.1 hold timer expired early");
  const auto before = tree.size();
  EXPECT_EQ(tree.match("peer 172.16.0.9 hold timer expired early"), id);
  EXPECT_EQ(tree.size(), before);
  EXPECT_EQ(tree.match("utterly novel message shape never seen"), -1);
  EXPECT_EQ(tree.size(), before);
}

TEST(SignatureTree, MatchToleratesUnseenStableTokens) {
  SignatureTree tree;
  const auto id = tree.learn("alpha beta gamma delta epsilon");
  // Two unseen stable tokens: similarity 3/5 = 0.6 still clears the
  // default threshold; the unseen tokens must not be interned.
  EXPECT_EQ(tree.match("alpha beta gamma newword otherword"), id);
  EXPECT_EQ(tree.match("alpha newone newtwo newthree newfour"), -1);
  // learn() after the matches behaves as if they never happened.
  EXPECT_EQ(tree.learn("alpha beta gamma delta epsilon"), id);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(SignatureTree, IdsAreDenseAndStable) {
  SignatureTree tree;
  const auto a = tree.learn("message one alpha");
  const auto b = tree.learn("message two beta distinct tail");
  EXPECT_EQ(a, 0);
  // b may or may not be 1 depending on merge, but must be a valid id.
  EXPECT_GE(b, 0);
  EXPECT_LT(static_cast<std::size_t>(b), tree.size());
  EXPECT_GE(tree.match_count(0), 1u);
}

TEST(SignatureTree, EmptyLineHandled) {
  SignatureTree tree;
  const auto id = tree.learn("");
  EXPECT_GE(id, 0);
  EXPECT_EQ(tree.learn(""), id);
  EXPECT_EQ(tree.pattern(id), "<empty>");
}

TEST(SignatureTree, MergeThresholdControlsSplitting) {
  SignatureTreeConfig strict;
  strict.merge_threshold = 0.95;
  SignatureTree tree(strict);
  const auto a = tree.learn("alpha beta gamma delta epsilon");
  const auto b = tree.learn("alpha beta gamma delta zeta");
  // 4/5 = 0.8 similarity < 0.95 → separate templates.
  EXPECT_NE(a, b);

  SignatureTreeConfig loose;
  loose.merge_threshold = 0.6;
  SignatureTree tree2(loose);
  const auto c = tree2.learn("alpha beta gamma delta epsilon");
  const auto d = tree2.learn("alpha beta gamma delta zeta");
  EXPECT_EQ(c, d);
}

TEST(SignatureTree, CapReusesClosestCompatibleSignature) {
  SignatureTreeConfig config;
  config.max_signatures = 1;
  config.merge_threshold = 0.9;
  SignatureTree tree(config);
  const auto a = tree.learn("alpha beta gamma");
  // Same shape, low similarity: cap forces reuse.
  const auto b = tree.learn("alpha omega psi");
  EXPECT_EQ(a, b);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(SignatureTree, CapStillAdmitsNewShapes) {
  SignatureTreeConfig config;
  config.max_signatures = 1;
  SignatureTree tree(config);
  tree.learn("alpha beta gamma");
  const auto b = tree.learn("a completely different shape with more tokens");
  EXPECT_GE(b, 1);  // soft cap: new shape still gets a template
}

// Drive the tree past the default 4096 soft cap: ids must stay dense and
// stable, and once at capacity the closest shape-compatible signature is
// reused for lines below the merge threshold.
TEST(SignatureTree, DefaultCapKeepsIdsDenseAndReusePathFires) {
  SignatureTree tree;  // default max_signatures = 4096
  const std::size_t over = tree.config().max_signatures + 104;

  // Distinct letter-only heads → each line is a genuinely new shape no
  // existing signature can absorb, so the soft cap admits all of them.
  const auto head = [](std::size_t i) {
    std::string h = "hdr";
    for (int k = 0; k < 3; ++k) {
      h += static_cast<char>('a' + i % 26);
      i /= 26;
    }
    return h;
  };
  std::vector<std::int32_t> first_ids;
  first_ids.reserve(over);
  for (std::size_t i = 0; i < over; ++i) {
    first_ids.push_back(tree.learn(head(i) + " alpha beta"));
  }
  ASSERT_EQ(tree.size(), over);
  for (std::size_t i = 0; i < over; ++i) {
    // Dense, stable ids in discovery order.
    ASSERT_EQ(first_ids[i], static_cast<std::int32_t>(i));
    ASSERT_EQ(tree.match_count(static_cast<std::int32_t>(i)), 1u);
  }

  // At capacity, a shape-compatible line below the merge threshold reuses
  // the closest existing signature instead of minting a new id...
  const auto reused = tree.learn(head(0) + " omega psi");
  EXPECT_EQ(reused, first_ids[0]);
  EXPECT_EQ(tree.size(), over);
  EXPECT_EQ(tree.match_count(0), 2u);
  // ...its disagreeing positions generalize to wildcards...
  EXPECT_EQ(tree.pattern(0), head(0) + " <*> <*>");
  // ...and re-learning any earlier line still returns its stable id.
  EXPECT_EQ(tree.learn(head(7) + " alpha beta"), first_ids[7]);
}

TEST(SignatureTree, RejectsBadConfig) {
  SignatureTreeConfig bad;
  bad.merge_threshold = 0.0;
  EXPECT_THROW(SignatureTree{bad}, nfv::util::CheckError);
  SignatureTreeConfig bad2;
  bad2.max_signatures = 0;
  EXPECT_THROW(SignatureTree{bad2}, nfv::util::CheckError);
}

TEST(SignatureTree, PatternRendering) {
  SignatureTree tree;
  tree.learn("peer 10.0.0.1 down");
  EXPECT_EQ(tree.pattern(0), "peer <*> down");
}

TEST(SignatureTree, VariableFirstTokenGroupsByEmptyHead) {
  SignatureTree tree;
  const auto a = tree.learn("42 widgets processed ok");
  const auto b = tree.learn("77 widgets processed ok");
  EXPECT_EQ(a, b);
}

TEST(SignatureTree, CopiesAreIndependent) {
  SignatureTree tree;
  tree.learn("peer 10.0.0.1 down");
  SignatureTree copy = tree;
  copy.learn("utterly new shape with extra tokens here");
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
  // The copy's interner is its own: the original still renders correctly.
  EXPECT_EQ(tree.pattern(0), "peer <*> down");
  EXPECT_EQ(copy.pattern(0), "peer <*> down");
}

// A leaf's templates live in a chain through the template entries; with
// four and then five templates at one (token count, head) leaf, ties are
// still won by the earliest template, as in the reference miner — for a
// private tree and a forest tree alike.
TEST(SignatureTree, LeafOfManyTemplatesScansInCreationOrder) {
  nfv::util::SharedInterner arena;
  SharedSignatureForest forest(&arena);
  SignatureTree private_tree;
  SignatureTree forest_tree(SignatureTreeConfig{}, &arena, &forest);
  ReferenceSignatureTree reference;
  const auto learn = [&](const std::string& line) {
    const std::int32_t id = reference.learn(line);
    EXPECT_EQ(private_tree.learn(line), id) << line;
    EXPECT_EQ(forest_tree.learn(line), id) << line;
    return id;
  };
  const auto match = [&](const std::string& line) {
    const std::int32_t id = reference.match(line);
    EXPECT_EQ(private_tree.match(line), id) << line;
    EXPECT_EQ(forest_tree.match(line), id) << line;
    return id;
  };
  // Pairwise similarity 1/5: four templates at one leaf.
  EXPECT_EQ(learn("head aa bb cc dd"), 0);
  EXPECT_EQ(learn("head ee ff gg hh"), 1);
  EXPECT_EQ(learn("head ii jj kk ll"), 2);
  EXPECT_EQ(learn("head mm nn oo pp"), 3);
  // Two-way ties at 3/5 go to the earlier template wherever they sit.
  EXPECT_EQ(match("head ee ff kk ll"), 1);
  EXPECT_EQ(match("head ii jj oo pp"), 2);
  EXPECT_EQ(match("head aa bb oo pp"), 0);
  EXPECT_EQ(match("head mm nn oo dd"), 3);  // 4/5 beats 2/5
  // Append a fifth at the chain tail, then generalize the middle one.
  EXPECT_EQ(learn("head qq rr ss tt"), 4);
  EXPECT_EQ(learn("head ii jj oo pp"), 2);
  EXPECT_EQ(private_tree.pattern(2), "head ii jj <*> <*>");
  // Templates 2, 3 and 4 all score 3/5: the earliest wins.
  EXPECT_EQ(match("head mm nn ss tt"), 2);
  EXPECT_EQ(match("head qq rr ss tt"), 4);
  EXPECT_EQ(learn("head mm nn ss tt"), 2);
  ASSERT_EQ(private_tree.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    EXPECT_EQ(private_tree.pattern(id), reference.signatures()[i].pattern());
    EXPECT_EQ(forest_tree.pattern(id), reference.signatures()[i].pattern());
    EXPECT_EQ(private_tree.match_count(id),
              reference.signatures()[i].match_count);
    EXPECT_EQ(forest_tree.match_count(id),
              reference.signatures()[i].match_count);
  }
}

// ---- Shared cross-vPE token arena ----------------------------------------

TEST(SignatureTreeSharedArena, TreesOnOneArenaShareIdStableTokens) {
  nfv::util::SharedInterner arena;
  SignatureTree a(SignatureTreeConfig{}, &arena);
  SignatureTree b(SignatureTreeConfig{}, &arena);
  a.learn("peer 10.0.0.1 state changed to Idle");
  b.learn("peer 10.9.8.7 state changed to Idle");
  EXPECT_EQ(a.pattern(0), b.pattern(0));
  // The stable vocabulary is stored once, fleet-wide, with the SAME id
  // in every tree that shares the arena.
  const std::uint32_t peer_a = a.interner().find("peer");
  EXPECT_NE(peer_a, nfv::util::ScopedInterner::kNotFound);
  EXPECT_EQ(b.interner().find("peer"), peer_a);
  EXPECT_LT(peer_a, nfv::util::ScopedInterner::kPrivateBase);
  // Nothing spilled privately: per-tree interner memory stays empty.
  EXPECT_EQ(a.interner().private_size(), 0u);
  EXPECT_EQ(b.interner().private_size(), 0u);
}

// The satellite counter contract: a WARM line costs exactly one interner
// lookup (the cached head probe) and zero shared-arena mutex
// acquisitions — including under max_signatures cap pressure, where new
// shapes are rejected and must NOT re-probe the arena for their tokens.
TEST(SignatureTreeSharedArena, WarmLinesCostOneProbeUnderCapPressure) {
  nfv::util::SharedInterner arena;
  SignatureTreeConfig config;
  config.max_signatures = 2;
  SignatureTree tree(config, &arena);
  tree.learn("linkdown interface ge-0/0/1 went away");
  tree.learn("peerflap neighbor 10.0.0.1 reset");
  ASSERT_EQ(tree.size(), 2u);

  // Fresh letter-only tokens every line: on the naive path each would
  // be a brand-new intern (a slow probe). At capacity the tree instead
  // reuses/generalizes the closest same-head signature, and the
  // never-admitted tokens must not touch the arena at all.
  const auto word = [](std::size_t i) {
    std::string w = "tok";
    for (int k = 0; k < 3; ++k) {
      w += static_cast<char>('a' + i % 26);
      i /= 26;
    }
    return w;
  };
  const std::uint64_t lookups_before = tree.interner().stats().lookups;
  const std::uint64_t slow_before = tree.interner().stats().slow_probes;
  constexpr std::size_t kLines = 50;
  for (std::size_t i = 0; i < kLines; ++i) {
    tree.learn("linkdown interface " + word(i) + " went away");
    tree.learn("linkdown cable " + word(i + 1000) + " totally gone");
  }
  const std::uint64_t lookups = tree.interner().stats().lookups -
                                lookups_before;
  const std::uint64_t slow = tree.interner().stats().slow_probes -
                             slow_before;
  EXPECT_EQ(lookups, 2u * kLines) << "more than one probe per line";
  EXPECT_EQ(slow, 0u) << "cap-pressure lines re-took the arena mutex";
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.interner().private_size(), 0u);
}

TEST(SignatureTreeSharedArena, ArenaCapSpillsPrivateWithoutReprobing) {
  nfv::util::SharedInterner::Config arena_config;
  arena_config.max_tokens = 3;  // <*>, <empty>, and one real token
  nfv::util::SharedInterner arena(arena_config);
  SignatureTree tree(SignatureTreeConfig{}, &arena);
  tree.learn("alpha beta gamma");
  EXPECT_EQ(tree.pattern(0), "alpha beta gamma");
  EXPECT_GT(tree.interner().private_size(), 0u);  // beta/gamma spilled
  EXPECT_GT(arena.rejected(), 0u);

  // Re-learning resolves every spilled token from the private tier:
  // zero further slow probes, and the template id stays stable.
  const std::uint64_t slow_before = tree.interner().stats().slow_probes;
  EXPECT_EQ(tree.learn("alpha beta gamma"), 0);
  EXPECT_EQ(tree.interner().stats().slow_probes, slow_before);
}

TEST(SignatureTreeSharedArena, OverflowPromotionKeepsPatternsStable) {
  nfv::util::SharedInterner::Config arena_config;
  arena_config.max_tokens = 3;
  nfv::util::SharedInterner arena(arena_config);
  SignatureTree old_tree(SignatureTreeConfig{}, &arena);
  old_tree.learn("alpha latecomer rises");
  ASSERT_EQ(old_tree.pattern(0), "alpha latecomer rises");

  // The spilled token is later promoted fleet-wide. The existing tree's
  // signatures keep rendering (private ids take precedence) and a NEW
  // tree mines the same pattern from the now-shared id.
  arena.register_token("latecomer");
  EXPECT_EQ(old_tree.pattern(0), "alpha latecomer rises");
  EXPECT_EQ(old_tree.learn("alpha latecomer rises"), 0);
  SignatureTree new_tree(SignatureTreeConfig{}, &arena);
  new_tree.learn("alpha latecomer rises");
  EXPECT_EQ(new_tree.pattern(0), old_tree.pattern(0));
  EXPECT_FALSE(
      new_tree.interner().is_private(new_tree.interner().find("latecomer")));
}

TEST(SignatureTreeSharedArena, MemoryBytesExcludesSharedArena) {
  nfv::util::SharedInterner arena;
  SignatureTree shared_tree(SignatureTreeConfig{}, &arena);
  SignatureTree private_tree;
  for (int i = 0; i < 200; ++i) {
    const std::string line = "daemon" + std::to_string(i) +
                             " restarted with fresh configuration";
    shared_tree.learn(line);
    private_tree.learn(line);
  }
  ASSERT_EQ(shared_tree.size(), private_tree.size());
  EXPECT_GT(shared_tree.memory_bytes(), 0u);
  // The shared tree's vocabulary lives in the arena (reported once per
  // fleet), so its per-tree footprint is strictly smaller.
  EXPECT_LT(shared_tree.memory_bytes(), private_tree.memory_bytes());
}

// A tree over an arena and a forest with no spills owns only its
// template entries and leaf table: nothing before its first learn(), no
// private interner tier, and none of the per-thread tokenization scratch
// — a very long line mined by another tree, or matched by this one,
// leaves its count unchanged.
TEST(SignatureTreeSharedArena, ForestTreeCountsNoPrivateTierOrScratchBytes) {
  nfv::util::SharedInterner arena;
  SharedSignatureForest forest(&arena);
  SignatureTree tree(SignatureTreeConfig{}, &arena, &forest);
  EXPECT_EQ(tree.memory_bytes(), 0u);
  EXPECT_EQ(tree.match("nothing learned yet"), -1);
  EXPECT_EQ(tree.memory_bytes(), 0u);

  for (int i = 0; i < 50; ++i) {
    tree.learn("daemon restarted after " + std::to_string(i) + " seconds");
    tree.learn("link down on port " + std::to_string(i));
  }
  ASSERT_EQ(tree.size(), 2u);
  EXPECT_EQ(tree.interner().private_size(), 0u);
  EXPECT_EQ(tree.interner().private_bytes(), 0u);
  EXPECT_EQ(tree.private_template_count(), 0u);
  const std::size_t owned = tree.memory_bytes();
  EXPECT_GT(owned, 0u);

  std::string long_line = "burst";
  for (int i = 0; i < 400; ++i) long_line += " word" + std::to_string(i);
  SignatureTree other(SignatureTreeConfig{}, &arena, &forest);
  other.learn(long_line);
  EXPECT_EQ(tree.match(long_line), -1);
  EXPECT_EQ(tree.learn("daemon restarted after 99 seconds"), 0);
  EXPECT_EQ(tree.memory_bytes(), owned);
}

}  // namespace
}  // namespace nfv::logproc
