#include "verify/portfolio.h"

#include <algorithm>
#include <cmath>

namespace sani::verify {

int suggest_unfold_cache_bits(const circuit::Gadget& gadget, int ceiling) {
  // Before any Basis exists, only netlist structure is available: unfolding
  // performs O(gates) apply operations, each touching O(live nodes) cache
  // slots, with live nodes roughly gates * inputs for these workloads.  A
  // fixed 2^18-entry table costs ~0.5 ms just to zero — more than an entire
  // small-gadget verification.
  const circuit::NetlistStats s = gadget.netlist.stats();
  const double work = static_cast<double>(s.num_gates) *
                          static_cast<double>(s.num_inputs + 1) * 16.0 +
                      1024.0;
  const int bits = static_cast<int>(std::ceil(std::log2(work)));
  return std::clamp(bits, 10, std::max(10, ceiling));
}

int unfold_cache_bits(const circuit::Gadget& gadget,
                      const VerifyOptions& options) {
  return resolve_engine(options.engine) == EngineKind::kCOEF
             ? suggest_unfold_cache_bits(gadget, options.cache_bits)
             : options.cache_bits;
}

}  // namespace sani::verify
