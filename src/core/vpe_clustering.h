// vPE grouping for model customization (§4.3).
//
// One model per vPE would be ideal but data-hungry; one global model
// sacrifices accuracy. The paper clusters vPEs by syslog distribution with
// K-means, picking K by modularity (4 groups for their fleet), and trains
// one model per group on the members' aggregated logs.
#pragma once

#include <vector>

#include "core/parsed_fleet.h"
#include "ml/kmeans.h"
#include "ml/som.h"
#include "util/rng.h"

namespace nfv::core {

enum class GroupingMethod {
  kKMeans,  // the paper's choice (K by modularity when fixed_k == 0)
  kSom,     // SOM-based grouping of the vNMF line of work ([21], [24])
};

struct VpeClusteringOptions {
  GroupingMethod method = GroupingMethod::kKMeans;
  /// Fixed number of groups; 0 selects K by modularity over [k_min, k_max].
  std::size_t fixed_k = 0;
  std::size_t k_min = 2;
  std::size_t k_max = 8;
  /// SOM grid (used when method == kSom); empty units are dropped, so the
  /// effective group count is at most rows × cols.
  ml::SomConfig som{};
};

struct VpeClustering {
  std::vector<int> group_of_vpe;       // group index per vPE
  std::size_t num_groups = 0;
  std::vector<double> modularity_by_k; // empty when fixed_k was used
  std::size_t selected_k = 0;
};

/// Cluster vPEs on their template distributions over [begin, end)
/// (typically the initial training month, with ticket windows excluded
/// upstream if desired).
VpeClustering cluster_vpes(const ParsedFleet& parsed,
                           nfv::util::SimTime begin, nfv::util::SimTime end,
                           const VpeClusteringOptions& options,
                           nfv::util::Rng& rng);

/// Trivial clustering: every vPE in group 0 (the "single model" baseline).
VpeClustering single_group(std::size_t num_vpes);

}  // namespace nfv::core
