#include "logproc/signature_tree.h"

#include "logproc/tokenizer.h"
#include "util/check.h"

namespace nfv::logproc {

/// One line's tokenization plus the new-signature and copy-on-write
/// buffers. Every field is rewritten by the call that reads it, so one
/// instance serves any number of trees in turn; the vectors keep their
/// capacity, so a warm thread mines without allocating.
struct SignatureTree::Scratch {
  std::vector<std::string_view> spans;
  std::vector<unsigned char> variable;
  // Head-probe cache filled by head_id() for the current line (valid only
  // when the line has a stable head), consumed by learn()'s
  // new-signature path.
  std::uint64_t head_hash = 0;
  bool head_hash_valid = false;
  std::vector<std::uint32_t> line_ids;  // new-signature path only
  std::vector<std::uint32_t> gen_ids;   // COW generalization only

  /// Token count of the tokenized line ("<empty>" placeholder counts as
  /// one token, matching the reference miner).
  std::size_t token_count() const { return spans.empty() ? 1 : spans.size(); }
};

SignatureTree::Scratch& SignatureTree::thread_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

namespace {

/// Id of the "<empty>" placeholder token (interned right after the
/// wildcard in the constructor, so it is always 1).
constexpr std::uint32_t kEmptyTokenId = 1;

constexpr std::size_t kInitialLeafSlots = 64;  // power of two

/// splitmix64 over the packed (token count, head id) leaf key, so the
/// per-line leaf probe hashes two integers instead of a std::string.
inline std::size_t leaf_hash(std::uint32_t count, std::uint32_t head) {
  std::uint64_t key = (static_cast<std::uint64_t>(count) << 32) | head;
  key ^= key >> 30;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 27;
  key *= 0x94D049BB133111EBull;
  key ^= key >> 31;
  return static_cast<std::size_t>(key);
}

}  // namespace

SignatureTree::SignatureTree(SignatureTreeConfig config,
                             nfv::util::SharedInterner* shared_tokens,
                             SharedSignatureForest* forest)
    : config_(config),
      interner_(forest != nullptr && shared_tokens == nullptr
                    ? forest->arena()
                    : shared_tokens),
      forest_(forest) {
  NFV_CHECK(config.merge_threshold > 0.0 && config.merge_threshold <= 1.0,
            "merge_threshold must be in (0, 1]");
  NFV_CHECK(config.max_signatures > 0, "max_signatures must be positive");
  NFV_CHECK(forest == nullptr || shared_tokens == nullptr ||
                shared_tokens == forest->arena(),
            "tree's token arena must be its forest's arena");
  // In shared mode these resolve against the arena (which pre-interns
  // them); privately they are the first two admissions. Either way the
  // reserved ids hold.
  const std::uint32_t wildcard = interner_.intern(kWildcard);
  NFV_CHECK(wildcard == kWildcardTokenId, "wildcard must intern to id 0");
  const std::uint32_t empty = interner_.intern("<empty>");
  NFV_CHECK(empty == kEmptyTokenId, "<empty> must intern to id 1");
}

std::size_t SignatureTree::checked_index(std::int32_t id) const {
  NFV_CHECK(id >= 0 && static_cast<std::size_t>(id) < sigs_.size(),
            "unknown template id " << id);
  return static_cast<std::size_t>(id);
}

std::span<const std::uint32_t> SignatureTree::node_tokens(
    std::uint32_t node) const {
  if (node >= kPrivateNodeBase) {
    const NodeRef& ref = private_nodes_[node - kPrivateNodeBase];
    return {private_words_.data() + ref.offset, ref.length};
  }
  return forest_->view(node);
}

std::uint32_t SignatureTree::store_node(
    const std::vector<std::uint32_t>& ids) {
  if (forest_ != nullptr) {
    // Sequences over privately-spilled token ids are tree-local by
    // definition and must never be published fleet-wide.
    bool shareable = true;
    for (const std::uint32_t t : ids) {
      if (t >= nfv::util::ScopedInterner::kPrivateBase) {
        shareable = false;
        break;
      }
    }
    if (shareable) {
      const std::uint32_t node = forest_->intern(ids);
      if (node != SharedSignatureForest::kNotFound) return node;
    }
  }
  NFV_CHECK(private_words_.size() + ids.size() <= 0xFFFFFFFFull &&
                private_nodes_.size() < kPrivateNodeBase,
            "private template pool exhausted");
  NodeRef ref;
  ref.offset = static_cast<std::uint32_t>(private_words_.size());
  ref.length = static_cast<std::uint32_t>(ids.size());
  private_words_.insert(private_words_.end(), ids.begin(), ids.end());
  private_nodes_.push_back(ref);
  return kPrivateNodeBase +
         static_cast<std::uint32_t>(private_nodes_.size() - 1);
}

std::string SignatureTree::pattern(std::int32_t id) const {
  const std::span<const std::uint32_t> toks =
      node_tokens(sigs_[checked_index(id)].node);
  std::string out;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (i > 0) out += ' ';
    out += token_text(toks[i]);
  }
  return out;
}

std::size_t SignatureTree::memory_bytes() const {
  // O(1) estimate from capacities; close enough for the bytes/vPE fleet
  // accounting (it tracks the dominant vectors and tables, not allocator
  // slack). Forest-backed template sequences cost this tree nothing —
  // the forest reports its bytes once per fleet.
  const std::size_t signature_bytes =
      sigs_.capacity() * sizeof(SigEntry) +
      private_words_.capacity() * sizeof(std::uint32_t) +
      private_nodes_.capacity() * sizeof(NodeRef);
  // The per-thread scratch is not the tree's and is not counted.
  const std::size_t leaf_bytes = leaf_slots_.capacity() * sizeof(LeafSlot);
  return interner_.private_bytes() + signature_bytes + leaf_bytes;
}

std::uint32_t SignatureTree::head_id(Scratch& s) const {
  // Masked-head equivalence classes of the reference miner's (count, head
  // string) key: a variable first token shares the wildcard bucket, an
  // empty line heads its own "<empty>" bucket.
  s.head_hash_valid = false;
  if (s.spans.empty()) return kEmptyTokenId;
  if (s.variable[0]) return kWildcardTokenId;
  s.head_hash = nfv::util::StringInterner::hash_bytes(s.spans[0]);
  s.head_hash_valid = true;
  return interner_.find_hashed(s.spans[0], s.head_hash);
}

double SignatureTree::similarity_to_line(const SigEntry& sig,
                                         const Scratch& s) const {
  const std::span<const std::uint32_t> toks = node_tokens(sig.node);
  // Same-count is guaranteed by the leaf key, but keep the guard so a
  // corrupt tree degrades to "no match" instead of out-of-bounds reads.
  const std::size_t n = s.token_count();
  if (toks.size() != n) return 0.0;
  if (s.spans.empty()) {
    // Placeholder line "<empty>": matches a wildcard or itself.
    return toks[0] == kWildcardTokenId || toks[0] == kEmptyTokenId
               ? 1.0
               : 0.0;
  }
  // A position matches when the template holds the wildcard there, or
  // when its interned text equals the line's span (a variable line token
  // is masked to "<*>" in the reference miner, so it can only match a
  // wildcard). Comparing text in place keeps the per-line interner
  // traffic to the single head probe.
  std::size_t matched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t t = toks[i];
    matched += static_cast<std::size_t>(
        t == kWildcardTokenId ||
        (s.variable[i] == 0 && interner_.view(t) == s.spans[i]));
  }
  return static_cast<double>(matched) / static_cast<double>(n);
}

bool SignatureTree::wildcard_mismatches(std::uint32_t* toks,
                                        const Scratch& s) const {
  bool changed = false;
  if (s.spans.empty()) {
    // Placeholder line "<empty>": only a stable non-placeholder differs.
    changed = toks[0] != kWildcardTokenId && toks[0] != kEmptyTokenId;
    if (changed) toks[0] = kWildcardTokenId;
    return changed;
  }
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    const std::uint32_t t = toks[i];
    if (t != kWildcardTokenId &&
        (s.variable[i] != 0 || interner_.view(t) != s.spans[i])) {
      toks[i] = kWildcardTokenId;
      changed = true;
    }
  }
  return changed;
}

void SignatureTree::generalize_to_line(SigEntry& sig, Scratch& s) {
  if (sig.node >= kPrivateNodeBase) {
    // Private node: 1:1 with this template, mutate in place (identical
    // to the pre-forest behavior).
    const NodeRef& ref = private_nodes_[sig.node - kPrivateNodeBase];
    wildcard_mismatches(private_words_.data() + ref.offset, s);
    return;
  }
  // Shared forest node: immutable, so diverge copy-on-write. The
  // generalized sequence is re-interned — deterministic, so vPEs
  // diverging the same way keep deduping onto one node — and only
  // spills into the private pool when the forest rejects it. The
  // per-tree template id (and its leaf position) never changes.
  const std::span<const std::uint32_t> seq = forest_->view(sig.node);
  s.gen_ids.assign(seq.begin(), seq.end());
  if (wildcard_mismatches(s.gen_ids.data(), s)) {
    sig.node = store_node(s.gen_ids);
  }
}

SignatureTree::BestMatch SignatureTree::find_best(std::uint32_t head,
                                                  const Scratch& s) const {
  BestMatch best;
  if (head == nfv::util::StringInterner::kNotFound) return best;
  const LeafSlot* slot =
      leaf_find(static_cast<std::uint32_t>(s.token_count()), head);
  if (slot == nullptr) return best;
  // Walk the leaf's templates in creation order (first-best wins,
  // identical to the reference miner's candidate scan); each link sits
  // in the entry whose node the similarity pass reads anyway.
  for (std::int32_t id = slot->sig; id >= 0;) {
    const SigEntry& sig = sigs_[static_cast<std::size_t>(id)];
    const double score = similarity_to_line(sig, s);
    if (score > best.score) {
      best.score = score;
      best.id = id;
    }
    id = sig.next;
  }
  return best;
}

const SignatureTree::LeafSlot* SignatureTree::leaf_find(
    std::uint32_t count, std::uint32_t head) const {
  if (leaf_slots_.empty()) return nullptr;  // nothing learned yet
  std::size_t slot = leaf_hash(count, head) & leaf_mask_;
  while (true) {
    const LeafSlot& s = leaf_slots_[slot];
    if (s.count == count && s.head == head) return &s;
    if (s.count == 0) return nullptr;
    slot = (slot + 1) & leaf_mask_;
  }
}

void SignatureTree::leaf_grow() {
  const std::size_t new_size =
      leaf_slots_.empty() ? kInitialLeafSlots : leaf_slots_.size() * 2;
  std::vector<LeafSlot> fresh(new_size);
  const std::size_t new_mask = new_size - 1;
  for (const LeafSlot& s : leaf_slots_) {
    if (s.count == 0) continue;
    std::size_t slot = leaf_hash(s.count, s.head) & new_mask;
    while (fresh[slot].count != 0) slot = (slot + 1) & new_mask;
    fresh[slot] = s;
  }
  leaf_slots_ = std::move(fresh);
  leaf_mask_ = new_mask;
}

void SignatureTree::leaf_insert(std::uint32_t count, std::uint32_t head,
                                std::int32_t sig) {
  if (const LeafSlot* leaf = leaf_find(count, head)) {
    // Append at the chain tail so find_best scans creation order.
    std::int32_t tail = leaf->sig;
    while (sigs_[static_cast<std::size_t>(tail)].next >= 0) {
      tail = sigs_[static_cast<std::size_t>(tail)].next;
    }
    sigs_[static_cast<std::size_t>(tail)].next = sig;
    return;
  }
  // Keep load factor under ~0.75 so probe chains stay short; the first
  // leaf allocates the table.
  if ((leaf_count_ + 1) * 4 > leaf_slots_.size() * 3) leaf_grow();
  std::size_t slot = leaf_hash(count, head) & leaf_mask_;
  while (leaf_slots_[slot].count != 0) slot = (slot + 1) & leaf_mask_;
  leaf_slots_[slot] = {count, head, sig};
  ++leaf_count_;
}

std::int32_t SignatureTree::learn(std::string_view line) {
  Scratch& s = thread_scratch();
  tokenize_spans(line, s.spans, s.variable);
  const std::uint32_t head = head_id(s);

  const BestMatch best = find_best(head, s);
  const bool at_capacity = sigs_.size() >= config_.max_signatures;
  if (best.id >= 0 &&
      (best.score >= config_.merge_threshold || at_capacity)) {
    SigEntry& sig = sigs_[static_cast<std::size_t>(best.id)];
    // Generalize: disagreeing positions become wildcards — the same
    // predicate similarity_to_line() counted as a mismatch. A perfect
    // score means no position disagreed, so the pass would be a no-op;
    // skipping it removes the second text-compare walk from the
    // steady-state path (a warm template has already generalized every
    // variable position to a wildcard).
    if (best.score != 1.0) generalize_to_line(sig, s);
    ++sig.match_count;
    return best.id;
  }

  // At capacity with no shape-compatible signature to fall back on the cap
  // is soft: a genuinely new line shape still gets a template, since losing
  // events entirely would corrupt the sequence model's input stream.
  // Only here — template discovery, not the steady state — are the line's
  // stable tokens interned and its id sequence materialized. The head's
  // probe from head_id() is reused (found id directly, or its cached hash
  // on the intern) so no token is probed twice for one line — under
  // max_signatures cap pressure, where novel shapes keep arriving, the
  // one-probe-per-line budget holds.
  s.line_ids.clear();
  for (std::size_t i = 0; i < s.spans.size(); ++i) {
    std::uint32_t id;
    if (s.variable[i] != 0) {
      id = kWildcardTokenId;
    } else if (i == 0 && head != nfv::util::StringInterner::kNotFound) {
      id = head;  // head_id() already resolved it
    } else if (i == 0 && s.head_hash_valid) {
      id = interner_.intern_hashed(s.spans[0], s.head_hash);
    } else {
      id = interner_.intern(s.spans[i]);
    }
    s.line_ids.push_back(id);
  }
  if (s.line_ids.empty()) s.line_ids.push_back(kEmptyTokenId);

  const std::int32_t id = static_cast<std::int32_t>(sigs_.size());
  SigEntry entry;
  entry.node = store_node(s.line_ids);
  entry.match_count = 1;
  sigs_.push_back(entry);
  leaf_insert(static_cast<std::uint32_t>(s.line_ids.size()),
              s.line_ids.front(), id);
  return id;
}

std::int32_t SignatureTree::match(std::string_view line) const {
  // Read-only: an unseen head resolves to kNotFound (no leaf can hold it),
  // and unseen stable tokens elsewhere simply fail every text comparison —
  // exactly like an unseen string in the reference miner. Nothing is
  // interned.
  Scratch& s = thread_scratch();
  tokenize_spans(line, s.spans, s.variable);
  const BestMatch best = find_best(head_id(s), s);
  return best.score >= config_.merge_threshold ? best.id : -1;
}

}  // namespace nfv::logproc
