// Uniform structural-stats snapshot every engine returns from Stats().
//
// Unlike the registry (process-wide, cumulative), a StructuralStats
// describes one engine *instance* at one moment: segment count, error
// window, buffer/delta occupancy, pool hit rate, epoch queue depth — the
// shape of the structure rather than the traffic through it. It is an
// ordered list of named doubles rather than a fixed struct so the four
// engines can report different fields through one API and one JSON
// emitter, and adding a field never breaks a caller.
//
// Stats() reads existing per-instance state and costs nothing until
// called.

#ifndef FITREE_TELEMETRY_STRUCTURAL_H_
#define FITREE_TELEMETRY_STRUCTURAL_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fitree::telemetry {

struct StructuralStats {
  std::string engine;  // EngineName() of the reporting engine
  std::vector<std::pair<std::string, double>> fields;  // insertion order

  void Add(std::string name, double value) {
    fields.emplace_back(std::move(name), value);
  }

  double Get(std::string_view name, double def = 0.0) const {
    for (const auto& [k, v] : fields) {
      if (k == name) return v;
    }
    return def;
  }

  bool Has(std::string_view name) const {
    for (const auto& [k, v] : fields) {
      if (k == name) return true;
    }
    return false;
  }
};

}  // namespace fitree::telemetry

#endif  // FITREE_TELEMETRY_STRUCTURAL_H_
