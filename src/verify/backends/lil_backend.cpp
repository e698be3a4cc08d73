#include "verify/backends/lil_backend.h"

#include "obs/trace.h"

namespace sani::verify {

using spectral::LilSpectrum;
using spectral::Spectrum;

LilBackend::LilBackend(const BackendContext& ctx)
    : basis_(ctx.basis),
      timers_(*ctx.timers),
      coefficients_(*ctx.coefficients),
      order_(ctx.order),
      memo_(ctx.memo_capacity, ctx.memo_stats) {}

void LilBackend::prepare() {
  rows_.push_back(std::make_shared<RowSet>(RowSet{LilSpectrum::from_spectrum(
      Spectrum::constant_zero(basis_->vars.num_vars))}));
}

void LilBackend::push(const std::vector<int>& path) {
  ScopedPhase phase(timers_, "convolution");
  obs::Span span("convolution");
  const bool memoize = static_cast<int>(path.size()) < order_;
  if (memoize) {
    if (const auto* hit = memo_.find(path)) {
      rows_.push_back(hit->rows);
      coefficients_ += hit->coefficients;
      return;
    }
  }
  const RowSet& cur = *rows_.back();
  const std::vector<LilSpectrum>& base = basis_->lil[path.back()];
  auto next = std::make_shared<RowSet>();
  next->reserve(cur.size() * base.size());
  std::uint64_t coeffs = 0;
  for (const LilSpectrum& r : cur)
    for (const LilSpectrum& s : base) {
      next->push_back(r.convolve(s));
      coeffs += next->back().nonzero_count();
    }
  coefficients_ += coeffs;
  if (memoize) memo_.insert(path, {next, coeffs});
  rows_.push_back(std::move(next));
}

void LilBackend::pop() { rows_.pop_back(); }

std::optional<Mask> LilBackend::check_rows(const RowCheckQuery& q) {
  ScopedPhase phase(timers_, "verification");
  obs::Span span("add_check");
  // LIL verification = product with the materialized relation vector,
  // each forbidden coordinate resolved by binary search in the sorted
  // list (the TCHES'20 baseline's cost model).
  if (q.region->empty()) return std::nullopt;
  for (const LilSpectrum& r : *rows_.back()) {
    Mask witness;
    if (q.region->find_violation(
            [&](const Mask& a) { return r.at(a) != 0; }, &witness,
            q.coefficients))
      return witness;
  }
  return std::nullopt;
}

void LilBackend::accumulate_deps(std::span<Mask> V) {
  for (const LilSpectrum& r : *rows_.back())
    for (const auto& [alpha, v] : r.entries()) {
      if (alpha.intersects(basis_->vars.random_vars)) continue;
      for (std::size_t i = 0; i < V.size(); ++i)
        V[i] |= alpha & basis_->vars.secret_vars[i];
    }
}

}  // namespace sani::verify
