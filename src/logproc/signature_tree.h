// Signature-tree template extraction for router syslogs.
//
// Implements the approach of Qiu et al., "What happened in my network:
// mining network events from router syslogs" (IMC '10), which the paper
// uses to transform raw free-form syslog into a structured representation:
// each message is reduced to a template id ("signature") plus variable
// fields. The tree is keyed by (token count, first stable token) with leaf
// groups merged by token-wise similarity; positions that disagree across
// merged messages become wildcards.
//
// Fast-path representation (zero allocation in steady state): every stable
// token of a signature is interned once and thereafter a template is a
// sequence of u32 token ids (kWildcardTokenId matches anything). The
// per-line front end — one-pass span tokenization, a single head-token
// interner probe, and a (token count, head id) leaf lookup — never
// materializes a std::string, and candidate scoring compares each template
// token's interned text against the line's spans in place, so a warm line
// touches the interner exactly once (its head). The head probe's result
// AND hash are cached across the learn() call, so even the template-
// discovery path never probes the same token twice in one line (one probe
// per line holds under max_signatures cap pressure — pinned by
// signature_tree_test). Line token ids are only built (and new tokens
// interned) when a genuinely new signature is created.
// Mined template ids are bit-identical to ReferenceSignatureTree (the seed
// implementation); tests/logproc/miner_equivalence_test.cpp and
// bench_parsing_throughput --smoke replay full fleet traces through both.
//
// Token storage is a two-level util::ScopedInterner. By default it is a
// plain private interner (bit-compatible with the pre-arena behavior). A
// tree constructed over a util::SharedInterner instead resolves the
// fleet-wide read-mostly arena first and spills rare per-vPE tokens into
// a private overflow id range: fleet memory for the overlapping token set
// becomes O(vocabulary) instead of O(vPEs x vocabulary), and shared-range
// token ids are identical across every tree on the arena ("id-stable
// across vPEs").
//
// TEMPLATE storage is two-level in the same way. Each per-tree template
// entry holds only a match count plus a node id naming its token
// sequence. With a SharedSignatureForest attached, sequences whose tokens
// are all shared-arena ids live as immutable nodes in the forest —
// deduped fleet-wide, so 10k identically-primed vPEs hold ONE cache-
// resident copy of the catalog instead of 10k cold private vectors, and
// the node id is fleet-stable across vPEs (SignatureTree::fleet_template_id).
// Divergence is copy-on-write: generalizing a shared-backed template
// re-interns the generalized sequence into the forest (vPEs diverging the
// same way keep deduping) or, when the forest rejects it (capacity caps,
// or the sequence contains a privately-spilled token id), spills it into
// the tree's private node range above kPrivateNodeBase, where later
// generalizations mutate it in place. Local precedence: the per-tree
// template id (dense creation order) never changes when its backing node
// moves between tiers. Template ids, patterns and match_counts are
// UNAFFECTED by the arena and forest choices: leaf keying and candidate
// scoring depend only on token identity (text) and per-tree creation
// order, never on where the sequence bytes live, so forest trees mine
// byte-identical templates to private trees (pinned by
// miner_equivalence_test).
//
// Thread-safety / ownership: a SignatureTree owns only its vPE's state —
// template entries, leaf index, private interner tier and private node
// pool, each table allocated on first use — and is strictly
// single-threaded, even for read-only matching (match() bumps the
// interner's probe counters); StreamMonitor keeps one tree per vPE. The
// tokenization scratch is one per THREAD, not per tree: learn() and
// match() take it on entry and leave nothing in it that the next call
// reads, so trees interleave freely on one thread and never share it
// across threads. The SHARED pieces are the token arena and the forest:
// many trees on many threads may read them lock-free while any of them
// admits new tokens/templates (a small mutex on the cold miss path).
// Both are instances of one publication arena, util::SharedArena
// (util/shared_arena.h): over token bytes for the arena, over token-id
// sequences for the forest. Copying a tree deep-copies its private
// tiers; the shared arena and forest are referenced, not copied, so
// copies stay id-compatible with the originals.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "logproc/shared_forest.h"
#include "util/interner.h"

namespace nfv::logproc {

/// Token id reserved for the wildcard marker "<*>" (always interned first).
inline constexpr std::uint32_t kWildcardTokenId = 0;

struct SignatureTreeConfig {
  /// Minimum fraction of positions that must match (wildcards count as
  /// matching) for a line to join an existing signature instead of
  /// creating a new one.
  double merge_threshold = 0.6;
  /// Soft cap on distinct signatures; beyond it, the closest shape-
  /// compatible signature is reused even below the merge threshold
  /// (syslog template spaces are finite in practice; the cap bounds the
  /// ML vocabulary). Lines with a shape no existing signature can absorb
  /// still get a fresh template.
  std::size_t max_signatures = 4096;
};

/// Online template miner. learn() both matches and updates the template
/// set; match() is read-only (a tree is still single-threaded — see the
/// thread-safety note above). Template ids are dense and stable: ids are
/// never reused or renumbered, so they can serve directly as the LSTM
/// vocabulary.
class SignatureTree {
 public:
  /// Returned by fleet_template_id() for a privately-backed template (or
  /// any template of a tree with no forest attached).
  static constexpr std::uint32_t kNoFleetId = 0xFFFFFFFFu;

  /// `shared_tokens` attaches the tree to a fleet-wide token arena and
  /// `forest` to a fleet-wide template forest (both may be null for a
  /// fully private tree; both must out-live the tree). A forest implies
  /// its arena: pass the forest alone and the tree attaches to
  /// forest->arena(); if both are given they must agree.
  explicit SignatureTree(SignatureTreeConfig config = {},
                         nfv::util::SharedInterner* shared_tokens = nullptr,
                         SharedSignatureForest* forest = nullptr);

  /// Match the line, creating or generalizing a signature as needed.
  /// Returns the template id. Zero heap allocation in steady state (warm
  /// tree, previously-seen stable tokens) — in shared-arena and
  /// shared-forest modes too.
  std::int32_t learn(std::string_view line);

  /// Read-only best match; returns -1 if nothing clears the threshold.
  /// Zero heap allocation in steady state, and never takes the shared
  /// arena's or forest's admission mutex (find-only).
  std::int32_t match(std::string_view line) const;

  std::size_t size() const { return sigs_.size(); }
  const SignatureTreeConfig& config() const { return config_; }

  /// Lines absorbed by template `id` (including the one that created it).
  std::uint64_t match_count(std::int32_t id) const {
    return sigs_[checked_index(id)].match_count;
  }

  /// The template's token-id sequence. Positions equal to
  /// kWildcardTokenId match anything. Forest-backed spans are stable for
  /// the forest's lifetime; privately-backed spans are invalidated by
  /// the next learn() that creates or generalizes a private template.
  std::span<const std::uint32_t> tokens(std::int32_t id) const {
    return node_tokens(sigs_[checked_index(id)].node);
  }

  /// Fleet-stable template id: the forest node currently backing
  /// template `id` — identical in every tree on the forest that mined
  /// the same (identically generalized) template — or kNoFleetId when
  /// the template is privately backed or no forest is attached.
  std::uint32_t fleet_template_id(std::int32_t id) const {
    const std::uint32_t node = sigs_[checked_index(id)].node;
    return node < kPrivateNodeBase ? node : kNoFleetId;
  }

  /// Templates currently backed by this tree's private node pool
  /// (diverged under forest caps or over private token ids). Counts
  /// pool entries, including nodes abandoned by later re-interning.
  std::size_t private_template_count() const { return private_nodes_.size(); }

  /// The attached forest, or nullptr.
  const SharedSignatureForest* forest() const { return forest_; }

  /// Text of one interned token id ("<*>" for kWildcardTokenId). Views
  /// into the shared arena are stable; views into the private tier are
  /// invalidated by the next learn() that admits a new private token.
  std::string_view token_text(std::uint32_t token_id) const {
    return interner_.view(token_id);
  }

  /// Human-readable pattern for a template id, e.g.
  /// "SNMP_TRAP_LINK_DOWN ifIndex <*> ...".
  std::string pattern(std::int32_t id) const;

  /// The two-level token view (probe stats, private-overflow size).
  const nfv::util::ScopedInterner& interner() const { return interner_; }

  /// Approximate resident bytes of this tree's PER-VPE state: private
  /// interner tier, template entries, private node pool and leaf table.
  /// Deliberately excludes the shared arena and forest (reported once
  /// per fleet) and the per-thread tokenization scratch (one per
  /// thread, not per tree) — this is the bytes/vPE figure the runtime
  /// stats publish. 0 for a fresh tree over an arena. O(1).
  std::size_t memory_bytes() const;

 private:
  /// First private-node id. Forest node ids live below it (the shared
  /// arena under the forest enforces that); without a forest every node
  /// is private. Same constant as the token tier.
  static constexpr std::uint32_t kPrivateNodeBase =
      nfv::util::ScopedInterner::kPrivateBase;

  /// A learned template: where its token sequence lives (shared forest
  /// node or private pool node), the next template at its leaf, and the
  /// per-vPE match count. 16 bytes — the entire per-tree cost of a
  /// fleet-shared template beyond its leaf slot.
  struct SigEntry {
    std::uint32_t node = 0;
    std::int32_t next = -1;  // next template at the same leaf, -1 = none
    std::uint64_t match_count = 0;
  };
  static_assert(sizeof(SigEntry) == 16);

  /// Span-of-signatures in the private pool. Offsets into private_words_.
  struct NodeRef {
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
  };

  /// Open-addressed (token count, head id) -> template list table: one
  /// flat power-of-two slot array (12 B/slot) naming each leaf's first
  /// template; the leaf's later templates follow in creation order
  /// through SigEntry::next. A line's token count is never 0 (an empty
  /// line counts its "<empty>" placeholder), so count 0 marks an empty
  /// slot.
  struct LeafSlot {
    std::uint32_t count = 0;  // line token count, 0 = empty slot
    std::uint32_t head = 0;   // head token id
    std::int32_t sig = -1;    // first template at this leaf
  };
  static_assert(sizeof(LeafSlot) == 12);

  /// Tokenization scratch of one line (signature_tree.cpp): one per
  /// thread, taken once on entry by learn() and match().
  struct Scratch;
  static Scratch& thread_scratch();

  /// Result of the shared tokenize→leaf-lookup→best-candidate walk.
  struct BestMatch {
    std::int32_t id = -1;
    double score = 0.0;
  };

  std::size_t checked_index(std::int32_t id) const;

  /// Interner id of the line's leaf head: kWildcardTokenId for a variable
  /// first token, kNotFound when the head was never interned (in which
  /// case no leaf can contain it). Caches the head's hash in `s` so the
  /// new-signature path can reuse it instead of re-probing the token it
  /// just looked up.
  std::uint32_t head_id(Scratch& s) const;

  /// Resolved token sequence of a node (either tier).
  std::span<const std::uint32_t> node_tokens(std::uint32_t node) const;

  /// Store a token sequence as a node: forest intern when attached and
  /// every token id is shared (dedup across vPEs), else private pool.
  std::uint32_t store_node(const std::vector<std::uint32_t>& ids);

  /// Fraction of positions where the template matches the line
  /// tokenized in `s`: wildcard positions match anything; stable
  /// positions compare the token's interned text against the line's span
  /// in place (a variable line token only matches a wildcard).
  double similarity_to_line(const SigEntry& sig, const Scratch& s) const;

  /// Wildcard every position of the sequence `toks` that disagrees with
  /// the line in `s` (the mismatch similarity_to_line() counts); true
  /// when any position changed.
  bool wildcard_mismatches(std::uint32_t* toks, const Scratch& s) const;

  /// Generalize `sig` to the line in `s`: in place for a private node,
  /// copy-on-write (re-intern or private spill) for a shared node.
  void generalize_to_line(SigEntry& sig, Scratch& s);

  /// Shared by learn() and match(): probe the leaf for (count, head) and
  /// scan its candidates for the best similarity score (first-best wins,
  /// in signature creation order — identical to the reference miner).
  BestMatch find_best(std::uint32_t head, const Scratch& s) const;

  const LeafSlot* leaf_find(std::uint32_t count, std::uint32_t head) const;
  /// Append template `sig` (already in sigs_) to the leaf's chain.
  void leaf_insert(std::uint32_t count, std::uint32_t head, std::int32_t sig);
  void leaf_grow();

  SignatureTreeConfig config_;
  nfv::util::ScopedInterner interner_;  // two-level token view (see above)
  SharedSignatureForest* forest_;       // fleet template tier, may be null
  std::vector<SigEntry> sigs_;          // template id -> entry

  // Private node pool: token sequences the forest does not hold. Nodes
  // are 1:1 with the templates they back and mutate in place on
  // generalization (a shared node is immutable and COWs into here or
  // back into the forest instead).
  std::vector<std::uint32_t> private_words_;
  std::vector<NodeRef> private_nodes_;

  // Flat leaf table (see LeafSlot), allocated by the first leaf_insert.
  std::vector<LeafSlot> leaf_slots_;
  std::size_t leaf_mask_ = 0;
  std::size_t leaf_count_ = 0;
};

}  // namespace nfv::logproc
