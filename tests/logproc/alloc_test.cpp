// Steady-state allocation audit for the template-mining fast path.
//
// Replaces the global allocation functions with counting versions and
// asserts that SignatureTree::learn() and match() perform ZERO heap
// allocations once the tree is warm (templates discovered, stable tokens
// interned) and the thread's tokenization scratch has grown — even when
// every line carries fresh variable field values, and with trees
// interleaving on one thread — and that StreamMonitorGroup staging, the step after
// mining, allocates nothing either. This is the acceptance criterion for the zero-allocation
// fast path; it lives in its own test binary because the counting
// operator new/delete replacement is process-global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "core/lstm_detector.h"
#include "core/streaming.h"
#include "logproc/signature_tree.h"
#include "util/interner.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Every deallocation function frees through one out-of-line call: were
// std::free inlined into a call site, GCC would pair it with the
// replaced operator new there and flag -Wmismatched-new-delete.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace nfv::logproc {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Realistic per-line corpus: fixed template shapes, variable fields (IPs,
/// indices, interface units) parameterized by `salt` so two corpora share
/// every stable token but no variable value.
std::vector<std::string> make_corpus(int salt) {
  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    const std::string n = std::to_string(salt * 1000 + i);
    lines.push_back("rpd[" + n + "]: bgp peer 10.7." + n +
                    ".1 (AS 65" + std::to_string(i) + ") state changed to Idle");
    lines.push_back("mib2d[" + n + "]: SNMP_TRAP_LINK_DOWN ifIndex " + n +
                    " ifName ge-0/0/" + std::to_string(i % 48) + "." + n);
    lines.push_back("chassisd fan tray " + std::to_string(i % 8) + " rpm " +
                    n + " deviates from commanded speed");
    lines.push_back("kernel: session 0x" + n +
                    " to core" + std::to_string(i % 4) + ".region1 torn down");
  }
  return lines;
}

TEST(SteadyStateAllocations, LearnIsAllocationFreeOnWarmTree) {
  SignatureTree tree;
  // Warm with one corpus: discovers templates, interns every stable token,
  // grows the tokenization scratch and leaf table.
  const std::vector<std::string> warmup = make_corpus(1);
  for (const std::string& line : warmup) tree.learn(line);
  const std::size_t templates = tree.size();
  ASSERT_GT(templates, 0u);

  // Second corpus: same shapes, entirely fresh variable values — built
  // BEFORE the counting window so its own allocations don't count.
  const std::vector<std::string> fresh = make_corpus(2);

  std::int64_t sink = 0;
  const std::uint64_t before = allocations();
  for (const std::string& line : fresh) sink += tree.learn(line);
  const std::uint64_t after = allocations();

  EXPECT_EQ(after - before, 0u) << "learn() allocated on a warm tree";
  EXPECT_GE(sink, 0);  // keep the loop observable
  EXPECT_EQ(tree.size(), templates) << "fresh values minted new templates";
}

TEST(SteadyStateAllocations, MatchIsAllocationFree) {
  SignatureTree tree;
  const std::vector<std::string> warmup = make_corpus(3);
  for (const std::string& line : warmup) tree.learn(line);
  const std::vector<std::string> fresh = make_corpus(4);
  // A line with unseen STABLE tokens exercises the interner miss path,
  // which must not intern (and so must not allocate) during match().
  const std::string unseen =
      "wholly unseen stable words that match nothing at all";

  std::int64_t sink = 0;
  const std::uint64_t before = allocations();
  for (const std::string& line : fresh) sink += tree.match(line);
  for (int i = 0; i < 100; ++i) sink += tree.match(unseen);
  const std::uint64_t after = allocations();

  EXPECT_EQ(after - before, 0u) << "match() allocated";
  EXPECT_NE(sink, 0);
}

// The shared-arena mode must preserve the zero-allocation steady state:
// a warm tree attached to the fleet-wide token arena resolves every
// token lock-free from already-published entries and allocates nothing,
// even on lines whose variable values (and interner-miss probes) are
// entirely fresh.
TEST(SteadyStateAllocations, SharedArenaLearnAndMatchAreAllocationFree) {
  nfv::util::SharedInterner arena;
  SignatureTree tree(SignatureTreeConfig{}, &arena);
  const std::vector<std::string> warmup = make_corpus(5);
  for (const std::string& line : warmup) tree.learn(line);
  const std::size_t templates = tree.size();
  ASSERT_GT(templates, 0u);

  const std::vector<std::string> fresh = make_corpus(6);
  const std::string unseen =
      "wholly unseen stable words that match nothing at all";

  std::int64_t sink = 0;
  const std::uint64_t before = allocations();
  for (const std::string& line : fresh) sink += tree.learn(line);
  for (const std::string& line : fresh) sink += tree.match(line);
  for (int i = 0; i < 100; ++i) sink += tree.match(unseen);
  const std::uint64_t after = allocations();

  EXPECT_EQ(after - before, 0u) << "shared-arena warm path allocated";
  EXPECT_NE(sink, 0);
  EXPECT_EQ(tree.size(), templates) << "fresh values minted new templates";
}

// The shared-forest mode must preserve it too: a warm tree whose
// templates live as immutable nodes in the fleet-wide forest resolves
// every template span lock-free and allocates nothing — fresh variable
// values merge at score 1.0, so neither the forest's admission path nor
// the copy-on-write divergence path runs in steady state.
TEST(SteadyStateAllocations, SharedForestLearnAndMatchAreAllocationFree) {
  nfv::util::SharedInterner arena;
  SharedSignatureForest forest(&arena);
  SignatureTree tree(SignatureTreeConfig{}, &arena, &forest);
  const std::vector<std::string> warmup = make_corpus(7);
  for (const std::string& line : warmup) tree.learn(line);
  const std::size_t templates = tree.size();
  ASSERT_GT(templates, 0u);
  ASSERT_GT(forest.size(), 0u);  // templates actually landed in the forest

  const std::vector<std::string> fresh = make_corpus(8);
  const std::string unseen =
      "wholly unseen stable words that match nothing at all";

  std::int64_t sink = 0;
  const std::uint64_t before = allocations();
  for (const std::string& line : fresh) sink += tree.learn(line);
  for (const std::string& line : fresh) sink += tree.match(line);
  for (int i = 0; i < 100; ++i) sink += tree.match(unseen);
  const std::uint64_t after = allocations();

  EXPECT_EQ(after - before, 0u) << "shared-forest warm path allocated";
  EXPECT_NE(sink, 0);
  EXPECT_EQ(tree.size(), templates) << "fresh values minted new templates";
}

/// Long lines (12 to 15 tokens) of shapes make_corpus() never emits, so a
/// tree mining them and a tree mining make_corpus() hand the thread's
/// scratch lines of different token counts on every alternation.
std::vector<std::string> make_long_corpus(int salt) {
  std::vector<std::string> lines;
  for (int i = 0; i < 64; ++i) {
    const std::string n = std::to_string(salt * 1000 + i);
    lines.push_back("ospf neighbor " + n + " on area " + n +
                    " went down hard and stayed down for " + n + " seconds");
    lines.push_back("cli commit " + n + " by user admin rolled back on node " +
                    n + " after confirm timeout expired");
  }
  return lines;
}

// Trees share their thread's tokenization scratch: two warm trees (one
// private, one on the shared forest) interleaving learn() and match() on
// lines of different token counts allocate nothing once the thread is
// warm.
TEST(SteadyStateAllocations, InterleavedTreesAreAllocationFreeOnAWarmThread) {
  nfv::util::SharedInterner arena;
  SharedSignatureForest forest(&arena);
  SignatureTree a;
  SignatureTree b(SignatureTreeConfig{}, &arena, &forest);
  for (const std::string& line : make_corpus(9)) a.learn(line);
  for (const std::string& line : make_long_corpus(9)) b.learn(line);
  const std::size_t a_templates = a.size();
  const std::size_t b_templates = b.size();

  const std::vector<std::string> fresh_a = make_corpus(10);
  const std::vector<std::string> fresh_b = make_long_corpus(10);
  std::int64_t sink = 0;
  const std::uint64_t before = allocations();
  for (std::size_t i = 0; i < fresh_b.size(); ++i) {
    sink += a.learn(fresh_a[i]);
    sink += b.match(fresh_a[i]);
    sink += b.learn(fresh_b[i]);
    sink += a.match(fresh_b[i]);
    sink += a.match(fresh_a[i + fresh_b.size()]);
  }
  const std::uint64_t after = allocations();

  EXPECT_EQ(after - before, 0u) << "interleaved warm trees allocated";
  EXPECT_NE(sink, 0);
  EXPECT_EQ(a.size(), a_templates) << "fresh values minted new templates";
  EXPECT_EQ(b.size(), b_templates) << "fresh values minted new templates";
}

// The group's full cycle is allocation-free once warm: staging (each
// shard's history is a fixed ring, the entry list and flat window buffer
// keep their capacity), the flush (windows gathered into the group's
// detector scratch, scored from the detector's scoring image into the
// group's score buffers) and the warning tracking it drives. Two cycles
// warm the buffers (the first stages fewer windows while the histories
// fill). Every scored line crosses the threshold and, 30 s after the
// previous one with a 10 s cluster span, raises a warning of its own.
TEST(SteadyStateAllocations, GroupStagingIsAllocationFree) {
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kLines = 64;  // per shard per cycle
  constexpr std::int32_t kTemplates = 8;
  const auto event = [](std::size_t shard, std::size_t line) {
    return ParsedLog{
        nfv::util::SimTime{static_cast<std::int64_t>(line * 30 + shard)},
        static_cast<std::int32_t>((line * 3 + shard) % kTemplates)};
  };

  nfv::core::LstmDetectorConfig config;
  config.window = 4;
  config.embed_dim = 4;
  config.hidden = 8;
  config.initial_epochs = 1;
  config.oversample = false;
  nfv::core::LstmDetector detector(config);
  std::vector<ParsedLog> train;
  for (std::size_t i = 0; i < 200; ++i) train.push_back(event(0, i));
  const nfv::core::LogView view{train};
  detector.fit({&view, 1}, kTemplates);

  nfv::core::StreamMonitorConfig monitor_config;
  monitor_config.window = config.window;
  monitor_config.threshold = 0.0;
  monitor_config.min_cluster_size = 1;
  monitor_config.cluster_span = nfv::util::Duration::of_seconds(10);
  std::size_t warnings = 0;
  std::vector<SignatureTree> trees(kShards);
  std::vector<nfv::core::StreamMonitor> monitors;
  monitors.reserve(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    monitors.emplace_back(
        static_cast<std::int32_t>(s), &detector, &trees[s], monitor_config,
        [&warnings](const nfv::core::StreamWarning&) { ++warnings; });
  }
  nfv::core::StreamMonitorGroup group(&detector);
  for (nfv::core::StreamMonitor& monitor : monitors) group.add(&monitor);

  const auto stage = [&](std::size_t cycle) {
    for (std::size_t i = 0; i < kLines; ++i) {
      for (std::size_t s = 0; s < kShards; ++s) {
        group.ingest_parsed(s, event(s, cycle * kLines + i));
      }
    }
  };
  for (std::size_t cycle = 0; cycle < 2; ++cycle) {
    stage(cycle);
    group.flush();
  }

  const std::size_t warned = warnings;
  const std::uint64_t before = allocations();
  stage(2);
  const std::uint64_t staged = allocations();
  const std::span<const double> scores = group.flush();
  const std::uint64_t flushed = allocations();

  EXPECT_EQ(staged - before, 0u) << "warm group staging allocated";
  EXPECT_EQ(flushed - staged, 0u)
      << "warm flush allocated "
      << static_cast<double>(flushed - staged) /
             static_cast<double>(scores.size())
      << " times per line";
  ASSERT_EQ(scores.size(), kShards * kLines);
  EXPECT_EQ(warnings - warned, kShards * kLines) << "warning tracking idle";
}

// Sanity check that the counting hook itself works — otherwise the zero
// deltas above would be vacuous.
TEST(SteadyStateAllocations, HookCountsColdLearns) {
  const std::uint64_t before = allocations();
  SignatureTree tree;
  tree.learn("cold path definitely allocates for new templates");
  const std::uint64_t after = allocations();
  EXPECT_GT(after - before, 0u);
}

}  // namespace
}  // namespace nfv::logproc
