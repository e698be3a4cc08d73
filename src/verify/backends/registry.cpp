#include "verify/backends/registry.h"

#include <stdexcept>

#include "verify/backends/fujita_backend.h"
#include "verify/backends/lil_backend.h"
#include "verify/backends/map_backend.h"

namespace sani::verify {

namespace {

std::unique_ptr<Backend> make_lil(const BackendContext& ctx) {
  return std::make_unique<LilBackend>(ctx);
}

std::unique_ptr<Backend> make_map(const BackendContext& ctx) {
  return std::make_unique<MapBackend>(ctx, MapCheck::kRegionScan);
}

std::unique_ptr<Backend> make_mapi(const BackendContext& ctx) {
  return std::make_unique<MapBackend>(ctx, MapCheck::kAdd);
}

std::unique_ptr<Backend> make_coef(const BackendContext& ctx) {
  return std::make_unique<MapBackend>(ctx, MapCheck::kCoefficients);
}

std::unique_ptr<Backend> make_fujita(const BackendContext& ctx) {
  return std::make_unique<FujitaBackend>(ctx);
}

}  // namespace

const std::vector<BackendInfo>& backend_registry() {
  static const std::vector<BackendInfo> registry = {
      {EngineKind::kLIL, "lil",
       "list-of-lists convolution + list-scan verification [11]",
       /*needs_thaw=*/false, /*needs_spectra=*/true, /*needs_lil=*/true,
       /*frozen_fns=*/false, /*frozen_spectra=*/false,
       /*needs_region=*/true, &make_lil},
      {EngineKind::kMAP, "map",
       "hash-map convolution + map-scan verification",
       /*needs_thaw=*/false, /*needs_spectra=*/true, /*needs_lil=*/false,
       /*frozen_fns=*/false, /*frozen_spectra=*/false,
       /*needs_region=*/true, &make_map},
      {EngineKind::kMAPI, "mapi",
       "hash-map convolution + ADD verification (the paper's method)",
       /*needs_thaw=*/true, /*needs_spectra=*/true, /*needs_lil=*/false,
       /*frozen_fns=*/false, /*frozen_spectra=*/true,
       /*needs_region=*/false, &make_mapi},
      {EngineKind::kFUJITA, "fujita",
       "per-combination Fujita transform + ADD verification",
       /*needs_thaw=*/true, /*needs_spectra=*/false, /*needs_lil=*/false,
       /*frozen_fns=*/true, /*frozen_spectra=*/false,
       /*needs_region=*/false, &make_fujita},
      {EngineKind::kCOEF, "coef",
       "flat convolution + per-coefficient verification (what auto runs)",
       /*needs_thaw=*/false, /*needs_spectra=*/true, /*needs_lil=*/false,
       /*frozen_fns=*/false, /*frozen_spectra=*/false,
       /*needs_region=*/false, &make_coef},
  };
  return registry;
}

const BackendInfo& backend_info(EngineKind kind) {
  for (const BackendInfo& info : backend_registry())
    if (info.kind == kind) return info;
  throw std::logic_error("backend_info: unregistered engine kind");
}

const BackendInfo* backend_by_name(const std::string& name) {
  for (const BackendInfo& info : backend_registry())
    if (name == info.name) return &info;
  return nullptr;
}

std::string backend_name_list() {
  std::string out;
  for (const BackendInfo& info : backend_registry()) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

}  // namespace sani::verify
