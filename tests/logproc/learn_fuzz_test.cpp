// Seeded mutation fuzzer of SignatureTree::learn. Simnet-rendered syslog
// lines get byte flips, insertions (NUL, bytes 0x80-0xFF, tokenizer
// separators), deletions and truncations, and every mutated line is mined
// by three miners: a tree on a token arena and forest with tiny caps (so
// tokens spill into its private overflow and templates diverge copy-on-
// write into its private node pool), a private tree, and the seed
// ReferenceSignatureTree. All three must return the same template id for
// every line, and every template's tokens() must render its pattern(),
// identical across the miners. tools/ci.sh runs it in the regular, ASan
// and UBSan legs (test_forest).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "logproc/reference_miner.h"
#include "logproc/shared_forest.h"
#include "logproc/signature_tree.h"
#include "simnet/template_catalog.h"
#include "util/interner.h"
#include "util/rng.h"

namespace nfv::logproc {
namespace {

/// The template's tokens rendered the way pattern() renders them.
std::string render_tokens(const SignatureTree& tree, std::int32_t id) {
  std::string out;
  for (const std::uint32_t t : tree.tokens(id)) {
    if (!out.empty()) out += ' ';
    out += tree.token_text(t);
  }
  return out;
}

/// One byte mutation of `line`: a flip, an insertion, a deletion or a
/// truncation. Insertions favour the bytes that steer the tokenizer and
/// the interner: NUL, high bytes and separators.
std::string mutate(std::string line, nfv::util::Rng& rng) {
  static constexpr char kBytes[] = " \t\n\r,;=()[]\"<*>\x00\x7f\x80\xff";
  static const std::string kSteering(kBytes, sizeof(kBytes) - 1);
  const std::size_t kind = rng.uniform_index(4);
  if (kind == 0 && !line.empty()) {
    const std::size_t at = rng.uniform_index(line.size());
    line[at] = static_cast<char>(line[at] ^ (1 + rng.uniform_index(255)));
  } else if (kind == 1) {
    const std::size_t at = rng.uniform_index(line.size() + 1);
    const std::size_t pick = rng.uniform_index(3);
    const char byte =
        pick == 0   ? kSteering[rng.uniform_index(kSteering.size())]
        : pick == 1 ? static_cast<char>(0x80 + rng.uniform_index(0x80))
                    : static_cast<char>(rng.uniform_index(256));
    line.insert(at, 1, byte);
  } else if (kind == 2 && !line.empty()) {
    line.erase(rng.uniform_index(line.size()), 1);
  } else {
    line.resize(rng.uniform_index(line.size() + 1));
  }
  return line;
}

TEST(LearnFuzz, MutatedLinesMineIdenticallyOnForestPrivateAndReference) {
  const simnet::TemplateCatalog catalog = simnet::TemplateCatalog::standard();
  // Tiny caps: room for a few dozen shared tokens and templates, so most
  // of the run mines against a full arena and a full forest.
  nfv::util::SharedInterner::Config arena_config;
  arena_config.max_tokens = 48;
  arena_config.max_bytes = 512;
  nfv::util::SharedInterner arena(arena_config);
  SharedSignatureForest::Config forest_config;
  forest_config.max_templates = 24;
  forest_config.max_tokens_total = 256;
  SharedSignatureForest forest(&arena, forest_config);
  SignatureTree shared(SignatureTreeConfig{}, &arena, &forest);
  SignatureTree private_tree;
  ReferenceSignatureTree reference{SignatureTreeConfig{}};

  nfv::util::Rng rng(20261020);
  std::size_t mutated_lines = 0;
  std::size_t copy_on_writes = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto tmpl =
        static_cast<std::int32_t>(rng.uniform_index(catalog.size()));
    std::string line = catalog.render_seeded(tmpl, rng.uniform_index(64));
    // Every third line is clean, so mutated lines land on leaves that
    // hold real templates and generalize them.
    if (i % 3 != 0) {
      const std::size_t mutations = 1 + rng.uniform_index(3);
      for (std::size_t m = 0; m < mutations; ++m) line = mutate(line, rng);
      ++mutated_lines;
    }
    const std::int32_t matched = reference.match(line);
    ASSERT_EQ(shared.match(line), matched) << "line " << i;
    ASSERT_EQ(private_tree.match(line), matched) << "line " << i;
    const std::uint32_t fleet_before = matched >= 0
                                           ? shared.fleet_template_id(matched)
                                           : SignatureTree::kNoFleetId;

    const std::int32_t ref_id = reference.learn(line);
    ASSERT_EQ(shared.learn(line), ref_id) << "line " << i;
    // A forest-backed template that generalized moved off its immutable
    // node: re-interned as a new node or spilled into the private pool.
    if (ref_id == matched && fleet_before != SignatureTree::kNoFleetId &&
        shared.fleet_template_id(ref_id) != fleet_before) {
      ++copy_on_writes;
    }
    ASSERT_EQ(private_tree.learn(line), ref_id) << "line " << i;
    const std::string pattern = reference.signatures()[ref_id].pattern();
    ASSERT_EQ(shared.pattern(ref_id), pattern) << "line " << i;
    ASSERT_EQ(private_tree.pattern(ref_id), pattern) << "line " << i;
  }

  ASSERT_EQ(shared.size(), reference.size());
  ASSERT_EQ(private_tree.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    const std::string pattern = reference.signatures()[i].pattern();
    EXPECT_EQ(render_tokens(shared, id), pattern) << "template " << i;
    EXPECT_EQ(render_tokens(private_tree, id), pattern) << "template " << i;
    EXPECT_EQ(shared.match_count(id), reference.signatures()[i].match_count)
        << "template " << i;
    // A forest node never holds a tree-local (privately spilled) token.
    if (shared.fleet_template_id(id) != SignatureTree::kNoFleetId) {
      for (const std::uint32_t t : shared.tokens(id)) {
        EXPECT_LT(t, nfv::util::ScopedInterner::kPrivateBase)
            << "template " << i;
      }
    }
  }

  // Not vacuous: the caps bound, tokens spilled, forest templates diverged
  // copy-on-write, and the forest still backs some templates.
  EXPECT_GT(mutated_lines, 2500u);
  EXPECT_GT(copy_on_writes, 0u);
  EXPECT_GT(arena.rejected(), 0u);
  EXPECT_GT(forest.rejected(), 0u);
  EXPECT_GT(shared.interner().private_size(), 0u);
  EXPECT_GT(shared.private_template_count(), 0u);
  std::size_t forest_backed = 0;
  for (std::size_t i = 0; i < shared.size(); ++i) {
    if (shared.fleet_template_id(static_cast<std::int32_t>(i)) !=
        SignatureTree::kNoFleetId) {
      ++forest_backed;
    }
  }
  EXPECT_GT(forest_backed, 0u);
}

}  // namespace
}  // namespace nfv::logproc
