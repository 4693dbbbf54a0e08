// Fleet-wide shared signature forest: cross-vPE template dedup.
//
// The paper's fleet premise is that thousands of vPEs of one type emit
// logs drawn from a common template catalog, so identically-primed
// per-vPE signature trees converge on identical template token
// sequences. The forest is the fleet-wide home for those sequences: one
// read-mostly store of immutable template nodes (token-id sequences over
// the shared token arena), shared by every per-vPE SignatureTree of a
// run. A template that N vPEs mine costs one node fleet-wide instead of
// N private vectors — and the node id is *fleet-stable*: the same
// template resolves to the same forest node id in every tree on the
// forest, the substrate the service-chain / noisy-neighbor correlation
// work needs.
//
// Node ids live below util::ScopedInterner::kPrivateBase. Trees layer a
// private node range on top for templates the forest cannot hold:
// sequences containing privately-spilled token ids (not meaningful
// fleet-wide) and admissions rejected by the capacity caps. Divergence
// is copy-on-write at the tree level: a tree that generalizes a shared
// template re-interns the generalized sequence (deduped again across
// vPEs diverging the same way) or spills it privately; the shared node
// itself is immutable forever.
//
// The forest is the std::uint32_t instance of util::SharedArena
// (util/shared_arena.h), the same publication machinery as the token
// arena, so its concurrency contract is the arena's: find()/view()/size()
// lock-free from any thread concurrently with admissions; intern() takes
// a small mutex only on first-sight admission and returns kNotFound when
// a capacity cap rejects (the tree keeps the template privately). Token
// ids passed to intern() must all be shared-arena ids (below
// kPrivateBase): private token ids are tree-local and must never be
// published fleet-wide. The forest must out-live every tree attached to
// it, and its token arena must out-live the forest.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/check.h"
#include "util/interner.h"
#include "util/shared_arena.h"

namespace nfv::logproc {

class SharedSignatureForest : public nfv::util::SharedArena<std::uint32_t> {
 public:
  struct Config {
    /// Admission caps of the node store; beyond them intern() rejects
    /// and trees keep the template privately. Bounds fleet memory under
    /// template-churn attacks.
    std::size_t max_templates = 1u << 17;
    std::size_t max_tokens_total = 4u << 20;
  };

  /// The forest is always layered over a shared token arena: node
  /// sequences are only meaningful in a fleet-wide token id space.
  /// (Two overloads, not one defaulted argument: Config's member
  /// initializers are only parsed once the enclosing class is complete.)
  explicit SharedSignatureForest(nfv::util::SharedInterner* token_arena)
      : SharedSignatureForest(token_arena, Config{}) {}
  SharedSignatureForest(nfv::util::SharedInterner* token_arena, Config config)
      : SharedArena({config.max_templates, config.max_tokens_total}),
        arena_(token_arena) {
    NFV_CHECK(token_arena != nullptr,
              "shared forest requires a shared token arena");
  }

  /// The token arena the node sequences are expressed over.
  nfv::util::SharedInterner* arena() const { return arena_; }

 private:
  nfv::util::SharedInterner* arena_;
};

}  // namespace nfv::logproc
