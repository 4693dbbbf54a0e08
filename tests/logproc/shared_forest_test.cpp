// SharedSignatureForest: fleet-wide template dedup with copy-on-write
// divergence. Pins the contracts the miner-equivalence suite does not
// cover directly: identically-primed trees share one forest node per
// template (fleet-stable ids), trees that diverge keep their LOCAL ids
// stable while their fleet ids move, same-way divergence re-dedups,
// capacity caps spill to per-tree private nodes without changing what
// is mined, and concurrent multi-tree admission / lock-free matching
// is race-free (the stress tests are what tools/ci.sh runs under
// ThreadSanitizer: ctest -L forest). The scratch tests pin that trees
// share only their thread's tokenization scratch, never each other's
// state, whether they interleave on one thread or run on their own. The fleet test drives the async
// runtime on a simnet catalog fleet and pins the point of the sharing:
// bytes/vPE below one private tree per vPE, with the warning stream
// still byte-for-byte the serial replay.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/async_ingest.h"
#include "core/lstm_detector.h"
#include "logproc/reference_miner.h"
#include "logproc/shared_forest.h"
#include "logproc/signature_tree.h"
#include "simnet/template_catalog.h"
#include "util/interner.h"
#include "util/stats.h"

namespace nfv::logproc {
namespace {

/// Deterministic multi-template corpus. Variable fields rotate with `i`;
/// the rotating STABLE words ("alpha".."delta") force disagreement at a
/// stable position, so replaying the corpus exercises generalization
/// (and, on a forest tree, the copy-on-write path), not just admission.
std::vector<std::string> stress_corpus() {
  static const char* kPorts[] = {"alpha", "beta", "gamma", "delta"};
  std::vector<std::string> lines;
  for (int i = 0; i < 150; ++i) {
    const std::string n = std::to_string(i);
    lines.push_back("bgp peer 10.0." + n + ".1 state changed to Idle");
    lines.push_back("link flap on port " + std::string(kPorts[i % 4]) +
                    " detected at " + n);
    lines.push_back("fan tray " + std::to_string(i % 8) + " rpm " + n +
                    " deviates from commanded speed");
    lines.push_back("session 0x" + n + " torn down by peer " +
                    std::string(kPorts[(i + 1) % 4]));
  }
  return lines;
}

/// A second corpus with entirely different template shapes (different
/// token counts and heads), for admission-vs-match races.
std::vector<std::string> writer_corpus() {
  std::vector<std::string> lines;
  for (int i = 0; i < 150; ++i) {
    const std::string n = std::to_string(i);
    lines.push_back("ospf neighbor " + n + " on area zero went down hard");
    lines.push_back("license usage for feature slot" + n + " exceeded");
    lines.push_back("cli commit confirmed by user operator" + n + " rolled back");
  }
  return lines;
}

TEST(SharedForestTest, IdenticallyPrimedTreesShareEveryNode) {
  nfv::util::SharedInterner arena;
  SharedSignatureForest forest(&arena);
  SignatureTree a(SignatureTreeConfig{}, &arena, &forest);
  SignatureTree b(SignatureTreeConfig{}, &arena, &forest);
  const std::vector<std::string> lines = stress_corpus();
  for (const std::string& line : lines) {
    ASSERT_EQ(a.learn(line), b.learn(line));
  }
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  // Every template is forest-backed (no private token ids, default caps)
  // and both trees resolve each one to the SAME fleet-stable node.
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    ASSERT_NE(a.fleet_template_id(id), SignatureTree::kNoFleetId)
        << "template " << i;
    EXPECT_EQ(a.fleet_template_id(id), b.fleet_template_id(id))
        << "template " << i;
    EXPECT_EQ(a.pattern(id), b.pattern(id)) << "template " << i;
  }
  EXPECT_EQ(a.private_template_count(), 0u);
  EXPECT_EQ(b.private_template_count(), 0u);
  // Shared once: live nodes are deduped across the two trees. (The
  // forest may also hold earlier generalization stages — admissions are
  // append-only — but never two trees' worth of live templates.)
  EXPECT_GE(forest.size(), a.size());
  EXPECT_LT(forest.size(), 2 * a.size());
}

TEST(SharedForestTest, DivergenceKeepsLocalIdsStableAndRededups) {
  nfv::util::SharedInterner arena;
  SharedSignatureForest forest(&arena);
  SignatureTree a(SignatureTreeConfig{}, &arena, &forest);
  SignatureTree b(SignatureTreeConfig{}, &arena, &forest);
  SignatureTree c(SignatureTreeConfig{}, &arena, &forest);

  // All three vPEs mine the same base template: one shared node.
  const std::string base = "link flap on port alpha detected now";
  ASSERT_EQ(a.learn(base), 0);
  ASSERT_EQ(b.learn(base), 0);
  ASSERT_EQ(c.learn(base), 0);
  const std::uint32_t base_fleet = a.fleet_template_id(0);
  ASSERT_NE(base_fleet, SignatureTree::kNoFleetId);
  EXPECT_EQ(b.fleet_template_id(0), base_fleet);
  EXPECT_EQ(c.fleet_template_id(0), base_fleet);
  EXPECT_EQ(forest.size(), 1u);

  // a and c generalize the port position; b generalizes the tail word.
  ASSERT_EQ(a.learn("link flap on port beta detected now"), 0);
  ASSERT_EQ(b.learn("link flap on port alpha detected later"), 0);
  ASSERT_EQ(c.learn("link flap on port gamma detected now"), 0);

  // Local template ids never moved; the fleet ids did — each diverged
  // tree re-interned its generalized sequence as a NEW immutable node.
  const std::uint32_t a_fleet = a.fleet_template_id(0);
  const std::uint32_t b_fleet = b.fleet_template_id(0);
  ASSERT_NE(a_fleet, SignatureTree::kNoFleetId);
  ASSERT_NE(b_fleet, SignatureTree::kNoFleetId);
  EXPECT_NE(a_fleet, base_fleet);
  EXPECT_NE(b_fleet, base_fleet);
  EXPECT_NE(a_fleet, b_fleet);  // different generalizations, different nodes
  EXPECT_NE(a.pattern(0), b.pattern(0));

  // Two vPEs diverging the SAME way dedup onto the same new node.
  EXPECT_EQ(c.fleet_template_id(0), a_fleet);
  EXPECT_EQ(c.pattern(0), a.pattern(0));

  // Each tree mined exactly what a fully private tree would have.
  SignatureTree private_a;
  private_a.learn(base);
  private_a.learn("link flap on port beta detected now");
  EXPECT_EQ(a.pattern(0), private_a.pattern(0));
  SignatureTree private_b;
  private_b.learn(base);
  private_b.learn("link flap on port alpha detected later");
  EXPECT_EQ(b.pattern(0), private_b.pattern(0));

  // Match counts are per-vPE state, untouched by the sharing.
  EXPECT_EQ(a.match_count(0), 2u);
  EXPECT_EQ(b.match_count(0), 2u);
  // The base node is immutable: it is still published in the forest
  // even though no tree's live template points at it any more.
  const SharedSignatureForest* f = a.forest();
  ASSERT_NE(f, nullptr);
  EXPECT_GE(f->size(), 3u);
  EXPECT_GT(f->view(base_fleet).size(), 0u);
}

TEST(SharedForestTest, CapRejectionSpillsToPrivateNodesWithoutChangingMining) {
  nfv::util::SharedInterner arena;
  SharedSignatureForest::Config config;
  config.max_templates = 1;  // everything after the first admission spills
  SharedSignatureForest forest(&arena, config);
  SignatureTree tree(SignatureTreeConfig{}, &arena, &forest);
  SignatureTree private_tree;

  const std::vector<std::string> lines = stress_corpus();
  for (const std::string& line : lines) {
    ASSERT_EQ(tree.learn(line), private_tree.learn(line)) << line;
  }
  ASSERT_GT(tree.size(), 1u);
  // First template landed in the forest; the rest were rejected by the
  // cap and live in the tree's private node range.
  EXPECT_EQ(forest.size(), 1u);
  EXPECT_GT(forest.rejected(), 0u);
  EXPECT_GT(tree.private_template_count(), 0u);
  std::size_t private_backed = 0;
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    if (tree.fleet_template_id(id) == SignatureTree::kNoFleetId) {
      ++private_backed;
    }
    // Spilling never changes WHAT is mined, only where it is stored.
    EXPECT_EQ(tree.pattern(id), private_tree.pattern(id)) << "template " << i;
    EXPECT_EQ(tree.match_count(id), private_tree.match_count(id))
        << "template " << i;
  }
  EXPECT_EQ(private_backed, tree.size() - 1);
}

// N per-vPE trees replay the SAME corpus concurrently, racing first-
// sight forest admissions (including copy-on-write re-interns from the
// generalization path). Mining is deterministic per tree, so all trees
// must end identical to a sequentially-built one — and must agree on
// every fleet-stable node id regardless of which thread won each
// admission race. TSan-clean.
TEST(SharedForestStressTest, ConcurrentTreesAgreeOnFleetIds) {
  constexpr std::size_t kThreads = 4;
  const std::vector<std::string> lines = stress_corpus();

  nfv::util::SharedInterner arena;
  SharedSignatureForest forest(&arena);
  std::vector<SignatureTree> trees;
  trees.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    trees.emplace_back(SignatureTreeConfig{}, &arena, &forest);
  }
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const std::string& line : lines) trees[t].learn(line);
    });
  }
  for (std::thread& t : threads) t.join();

  SignatureTree reference(SignatureTreeConfig{});
  for (const std::string& line : lines) reference.learn(line);

  ASSERT_GT(reference.size(), 0u);
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(trees[t].size(), reference.size()) << "tree " << t;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto id = static_cast<std::int32_t>(i);
      ASSERT_EQ(trees[t].pattern(id), reference.pattern(id))
          << "tree " << t << " template " << i;
      ASSERT_EQ(trees[t].match_count(id), reference.match_count(id))
          << "tree " << t << " template " << i;
      ASSERT_NE(trees[t].fleet_template_id(id), SignatureTree::kNoFleetId);
      ASSERT_EQ(trees[t].fleet_template_id(id), trees[0].fleet_template_id(id))
          << "tree " << t << " template " << i;
    }
  }
}

// Warm reader trees match() lock-free — resolving their forest-backed
// template spans via view() — while a writer tree keeps admitting new
// templates (new shapes, so the forest's table grows and word chunks
// extend under the readers). match() must never take the admission
// mutex and must keep returning the warm ids throughout. TSan-clean.
TEST(SharedForestStressTest, LockFreeMatchRacesForestAdmission) {
  constexpr std::size_t kReaders = 3;
  const std::vector<std::string> warm = stress_corpus();
  const std::vector<std::string> fresh = writer_corpus();

  nfv::util::SharedInterner arena;
  SharedSignatureForest forest(&arena);
  std::vector<SignatureTree> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(SignatureTreeConfig{}, &arena, &forest);
    for (const std::string& line : warm) readers.back().learn(line);
  }
  // Expected match ids on a quiet forest, per reader (all identical, but
  // computed per tree to keep the read path honest).
  std::vector<std::vector<std::int32_t>> expected(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    for (const std::string& line : warm) {
      expected[r].push_back(readers[r].match(line));
    }
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    SignatureTree tree(SignatureTreeConfig{}, &arena, &forest);
    for (const std::string& line : fresh) tree.learn(line);
    done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      do {
        for (std::size_t i = 0; i < warm.size(); ++i) {
          ASSERT_EQ(readers[r].match(warm[i]), expected[r][i])
              << "reader " << r << " line " << i;
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (std::thread& t : threads) t.join();
  // The writer's templates actually landed next to the warm ones.
  EXPECT_GT(forest.size(), readers[0].size());
}

// ---- Per-thread mining scratch ----------------------------------------
//
// learn() and match() tokenize into one scratch per THREAD, not per tree.
// These tests interleave trees on one thread and run trees on their own
// threads; both must mine exactly what the reference miner mines for
// each tree's lines alone. Lines change token count from call to call
// (the empty line included), new shapes keep arriving, and the forest's
// and arena's caps are small, so the new-signature path, private token
// spills and copy-on-write generalization of forest nodes into the
// private pool all run between the other tree's calls.

/// Letters-only word for `i` (the tokenizer keeps it stable).
std::string letters(std::size_t i) {
  std::string w;
  for (int k = 0; k < 3; ++k) {
    w += static_cast<char>('a' + i % 26);
    i /= 26;
  }
  return w;
}

/// Line `i` of stream `salt`: shapes of 0 to 13 tokens rotate with i and
/// salt, stable words disagree across lines (generalization), and every
/// 9th line has a fresh head (a new template).
std::string scratch_line(std::size_t salt, std::size_t i) {
  const std::string n = std::to_string(i * 13 + salt);
  const std::string w = letters(i / 4 + salt);
  switch ((i + salt) % 9) {
    case 0: return "fresh" + letters(i * 5 + salt) + " shape appeared";
    case 1: return "link flap on port " + w + " detected at " + n;
    case 2: return "cpu hot " + w;
    case 3: return "";
    case 4: return "ospf neighbor " + n + " on area " + w +
                   " went down hard and stayed down for " + n + " seconds";
    case 5: return "fan tray " + n + " rpm " + n + " deviates from " + w;
    case 6: return "session 0x" + n + " torn down by peer " + w;
    case 7: return "cli commit by user " + w + " rolled back";
    default: return "bgp peer 10.0." + n + ".1 state changed to " + w;
  }
}

/// A capped forest: its template cap rejects most admissions, so later
/// templates and copy-on-write generalizations of forest nodes spill to
/// the trees' private pools; the arena's token cap spills tokens too.
struct CappedForest {
  nfv::util::SharedInterner arena{[] {
    nfv::util::SharedInterner::Config config;
    config.max_tokens = 40;
    return config;
  }()};
  SharedSignatureForest forest{&arena, [] {
                                 SharedSignatureForest::Config config;
                                 config.max_templates = 8;
                                 return config;
                               }()};
};

void expect_mined_like(const SignatureTree& tree,
                       const ReferenceSignatureTree& reference,
                       const std::string& label) {
  ASSERT_EQ(tree.size(), reference.size()) << label;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto id = static_cast<std::int32_t>(i);
    EXPECT_EQ(tree.pattern(id), reference.signatures()[i].pattern())
        << label << " template " << i;
    EXPECT_EQ(tree.match_count(id), reference.signatures()[i].match_count)
        << label << " template " << i;
  }
}

TEST(SignatureTreeScratchTest, InterleavedTreesOnOneThreadMineLikeSoloTrees) {
  constexpr std::size_t kLines = 400;
  CappedForest capped;
  SignatureTree a(SignatureTreeConfig{}, &capped.arena, &capped.forest);
  SignatureTree b(SignatureTreeConfig{}, &capped.arena, &capped.forest);
  ReferenceSignatureTree ref_a;
  ReferenceSignatureTree ref_b;
  for (std::size_t i = 0; i < kLines; ++i) {
    // a and b see different shapes at every step, so each call's line
    // has another token count than the line the other tree just left.
    const std::string la = scratch_line(0, i);
    const std::string lb = scratch_line(4, i);
    ASSERT_EQ(a.learn(la), ref_a.learn(la)) << "a line " << i;
    ASSERT_EQ(b.match(la), ref_b.match(la)) << "b matches a's line " << i;
    ASSERT_EQ(b.learn(lb), ref_b.learn(lb)) << "b line " << i;
    ASSERT_EQ(a.match(lb), ref_a.match(lb)) << "a matches b's line " << i;
  }
  // The caps bit: copy-on-write and new templates spilled privately.
  EXPECT_GT(capped.forest.rejected(), 0u);
  EXPECT_GT(a.private_template_count(), 0u);
  EXPECT_GT(b.private_template_count(), 0u);
  EXPECT_GT(a.interner().private_size(), 0u);
  expect_mined_like(a, ref_a, "a");
  expect_mined_like(b, ref_b, "b");
}

// One tree per thread, four threads on one capped forest, each thread
// mining its own stream (different token counts at every step) and
// matching the next thread's. Ids, patterns and match counts must equal
// the serial reference's for each stream. TSan-clean: trees on different
// threads share no scratch.
TEST(SignatureTreeScratchStressTest, TreesOnTheirOwnThreadsMineLikeSerial) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kLines = 600;
  std::vector<ReferenceSignatureTree> refs(kThreads);
  std::vector<std::vector<std::int32_t>> expected(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kLines; ++i) {
      expected[t].push_back(refs[t].learn(scratch_line(t, i)));
      expected[t].push_back(refs[t].match(scratch_line(t + 1, i)));
    }
  }

  CappedForest capped;
  std::vector<SignatureTree> trees;
  trees.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    trees.emplace_back(SignatureTreeConfig{}, &capped.arena, &capped.forest);
  }
  std::vector<std::vector<std::int32_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kLines; ++i) {
        got[t].push_back(trees[t].learn(scratch_line(t, i)));
        got[t].push_back(trees[t].match(scratch_line(t + 1, i)));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::string label = "tree " + std::to_string(t);
    EXPECT_EQ(got[t], expected[t]) << label;
    expect_mined_like(trees[t], refs[t], label);
  }
}

// ---- Fleet memory gate: the async runtime on a catalog-driven fleet ----

constexpr std::size_t kWindow = 4;
constexpr std::int64_t kStepSeconds = 30;

/// Mine every catalog template once, in catalog order: identical ids in
/// every tree primed this way, aligned with the detector vocabulary.
void prime_with_catalog(SignatureTree& tree,
                        const simnet::TemplateCatalog& catalog) {
  for (const simnet::LogTemplate& t : catalog.all()) {
    tree.learn(catalog.render_seeded(t.id, 0));
  }
}

struct CatalogFleet {
  simnet::TemplateCatalog catalog = simnet::TemplateCatalog::standard();
  std::vector<std::int32_t> normal_ids;  // normal + maintenance templates
  core::LstmDetector detector;
  double threshold = 0.0;

  CatalogFleet() {
    for (const auto kind : {simnet::TemplateKind::kNormal,
                            simnet::TemplateKind::kMaintenance}) {
      for (const std::int32_t id : catalog.ids_of_kind(kind)) {
        normal_ids.push_back(id);
      }
    }
    SignatureTree tree;
    prime_with_catalog(tree, catalog);
    std::vector<std::vector<ParsedLog>> streams(4);
    for (std::size_t v = 0; v < streams.size(); ++v) {
      for (std::size_t i = 0; i < 400; ++i) {
        streams[v].push_back({time(i), tree.learn(normal_line(v, i))});
      }
    }
    core::LstmDetectorConfig config;
    config.window = kWindow;
    config.embed_dim = 8;
    config.hidden = 16;
    config.initial_epochs = 1;
    config.max_train_windows = 1200;
    config.oversample = false;
    config.seed = 20260809;
    detector = core::LstmDetector(config);
    std::vector<core::LogView> views(streams.begin(), streams.end());
    detector.fit(views, tree.size());
    std::vector<double> scores;
    for (const auto& stream : streams) {
      for (const core::ScoredEvent& e : detector.score(stream, tree.size())) {
        scores.push_back(e.score);
      }
    }
    threshold = nfv::util::quantile(scores, 0.995);
  }

  static nfv::util::SimTime time(std::size_t i) {
    return nfv::util::SimTime{static_cast<std::int64_t>(i) * kStepSeconds};
  }
  std::string normal_line(std::size_t vpe, std::size_t i) const {
    const std::int32_t id =
        normal_ids[(i * 7 + vpe * 3 + i / 31) % normal_ids.size()];
    return catalog.render_seeded(
        id, (static_cast<std::uint64_t>(vpe) << 32) | i);
  }
  /// Normal traffic, except pairs of two fault shapes NOT in the catalog
  /// (letters-only heads, so the tokenizer keeps them stable) that are
  /// mined online onto ids >= the model vocabulary. Each pair lands 30 s
  /// apart, inside the 2-minute cluster span.
  std::string line(std::size_t vpe, std::size_t i) const {
    if (i % 47 != 20 && i % 47 != 21) return normal_line(vpe, i);
    return std::string(vpe % 2 == 0 ? "zulufault cascade overload detected"
                                    : "yankeefault thermal runaway shutdown") +
           " code " + std::to_string(i);
  }
  core::StreamMonitorConfig monitor_config() const {
    core::StreamMonitorConfig config;
    config.threshold = threshold;
    config.window = kWindow;
    return config;
  }
};

// 48 vPEs x 120 catalog lines through AsyncIngest with primed trees. The
// shared arena and forest must cut bytes/vPE (their own bytes charged
// against it) below the private baseline, the mean memory_bytes() of the
// serial replay's own trees, and the warnings must match that replay at
// 1 and 3 workers.
TEST(SharedForestFleetTest,
     RuntimeBytesPerVpeBeatPrivateTreesWithSerialParity) {
  constexpr std::size_t kVpes = 48;
  constexpr std::size_t kLines = 120;
  const CatalogFleet fleet;

  std::vector<core::StreamWarning> serial;
  std::uint64_t private_bytes = 0;
  for (std::size_t v = 0; v < kVpes; ++v) {
    SignatureTree tree;
    prime_with_catalog(tree, fleet.catalog);
    core::StreamMonitor monitor(
        static_cast<std::int32_t>(v), &fleet.detector, &tree,
        fleet.monitor_config(),
        [&serial](const core::StreamWarning& w) { serial.push_back(w); });
    for (std::size_t i = 0; i < kLines; ++i) {
      monitor.ingest(CatalogFleet::time(i), fleet.line(v, i));
    }
    private_bytes += tree.memory_bytes();
  }
  ASSERT_FALSE(serial.empty())
      << "vacuous: the serial replay raised no warning";
  const double private_bytes_per_vpe =
      static_cast<double>(private_bytes) / static_cast<double>(kVpes);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{3}}) {
    core::AsyncIngestConfig config;
    config.workers = workers;
    config.flush_batch = 64;
    config.flush_deadline = std::chrono::microseconds(2000);
    core::AsyncIngest ingest(&fleet.detector, config);
    for (std::size_t v = 0; v < kVpes; ++v) {
      const std::size_t shard = ingest.add_shard(static_cast<std::int32_t>(v),
                                                 fleet.monitor_config());
      prime_with_catalog(ingest.mutable_tree(shard), fleet.catalog);
    }
    ingest.start();
    for (std::size_t i = 0; i < kLines; ++i) {
      for (std::size_t v = 0; v < kVpes; ++v) {
        ingest.submit(v, CatalogFleet::time(i), fleet.line(v, i));
      }
    }
    ingest.flush();
    const core::FleetMemoryStats memory = ingest.snapshot().memory;
    ingest.stop();
    std::vector<core::StreamWarning> drained;
    ingest.drain_warnings(drained);
    const std::vector<core::StreamWarning> merged =
        core::merge_warnings_by_vpe(std::move(drained));

    const std::string label = "workers=" + std::to_string(workers);
    EXPECT_GT(memory.forest_templates, 0u) << label;
    EXPECT_LT(memory.bytes_per_vpe, private_bytes_per_vpe) << label;
    ASSERT_EQ(merged.size(), serial.size()) << label;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(merged[i].vpe, serial[i].vpe) << label << " warning " << i;
      EXPECT_EQ(merged[i].time.seconds, serial[i].time.seconds)
          << label << " warning " << i;
      EXPECT_EQ(merged[i].anomaly_count, serial[i].anomaly_count)
          << label << " warning " << i;
      EXPECT_EQ(merged[i].peak_score, serial[i].peak_score)
          << label << " warning " << i;
      EXPECT_EQ(merged[i].trigger_template, serial[i].trigger_template)
          << label << " warning " << i;
    }
  }
}

}  // namespace
}  // namespace nfv::logproc
