// Catalog of syslog message templates the simulated vPEs emit.
//
// The catalog plays the role of the (proprietary) router syslog universe in
// the paper's dataset: free-form messages with variable fields (interfaces,
// peers, counters). Each template carries simulation metadata — how common
// it is in normal operation, whether it is a fault precursor or an
// infected-period error and for which ticket root cause, and whether it
// only appears after the fleet's software update.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/types.h"
#include "util/rng.h"

namespace nfv::simnet {

enum class TemplateKind : std::uint8_t {
  kNormal = 0,   // steady-state operational chatter
  kMaintenance,  // emitted during scheduled maintenance windows
  kPrecursor,    // anomalous pattern preceding a fault's ticket
  kError,        // emitted during a fault's infected period
  kPostUpdate,   // exists only after the system software update
  kBenignRare,   // rare benign bursts (audit storms, route refreshes) —
                 // legitimate operations that look like anomalies and are
                 // the main source of detector false alarms
};

/// One message template. `pattern` contains placeholders that the renderer
/// fills with plausible values: {if} interface, {ip} IPv4 address, {num}
/// small integer, {big} large counter, {hex} hex id, {as} AS number,
/// {pct} percentage, {fpc} slot number, {peer} peer router name.
struct LogTemplate {
  std::int32_t id = -1;
  std::string name;       // stable mnemonic, e.g. "BGP_NEIGHBOR_DOWN"
  std::string pattern;
  TemplateKind kind = TemplateKind::kNormal;
  /// Root cause this template signals (precursor/error kinds only).
  TicketCategory category = TicketCategory::kCircuit;
  /// Relative frequency in normal operation (normal/maintenance kinds).
  double base_weight = 1.0;
};

/// Immutable catalog shared by all vPEs.
class TemplateCatalog {
 public:
  /// Build the standard catalog (~150 templates).
  static TemplateCatalog standard();

  const std::vector<LogTemplate>& all() const { return templates_; }
  const LogTemplate& at(std::int32_t id) const;
  std::size_t size() const { return templates_.size(); }

  /// Ids of templates of a given kind (and, for fault kinds, category).
  std::vector<std::int32_t> ids_of_kind(TemplateKind kind) const;
  std::vector<std::int32_t> fault_ids(TemplateKind kind,
                                      TicketCategory category) const;

  /// Render a template's pattern with random variable fields.
  std::string render(std::int32_t id, nfv::util::Rng& rng) const;

  /// Deterministic render: the variable fields are drawn from a fresh
  /// generator seeded with (id, salt), so the same (id, salt) pair yields
  /// the same line on every call. This is what lets a fleet workload
  /// regenerate a multi-million-line 10k-vPE stream for its serial
  /// replay instead of holding every line in memory.
  std::string render_seeded(std::int32_t id, std::uint64_t salt) const;

 private:
  void add(std::string name, std::string pattern, TemplateKind kind,
           double base_weight = 1.0,
           TicketCategory category = TicketCategory::kCircuit);

  std::vector<LogTemplate> templates_;
};

}  // namespace nfv::simnet
