#include "verify/partial.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>

#include "obs/clock.h"
#include "obs/trace.h"
#include "sched/cancel.h"
#include "util/combinations.h"
#include "verify/backends/registry.h"

namespace sani::verify {

bool combo_before(const std::vector<int>& a, const std::vector<int>& b,
                  bool largest_first) {
  if (largest_first && a.size() != b.size()) return a.size() > b.size();
  return a < b;
}

std::uint64_t search_position(int n, int order, const std::vector<int>& combo,
                              bool largest_first) {
  auto add = [](std::uint64_t a, std::uint64_t b) {
    return a > UINT64_MAX - b ? UINT64_MAX : a + b;
  };
  const int m = static_cast<int>(combo.size());
  const BinomialTable& c = binomial_table(n, order);
  if (largest_first) {
    std::uint64_t pos = combination_rank(n, combo) + 1;
    for (int k = m + 1; k <= std::min(order, n); ++k) pos = add(pos, c(n, k));
    return pos;
  }
  // Lexicographic order over all sizes: before `combo` come its m - 1
  // proper prefixes and, for every position i and every v below combo[i]
  // (above combo[i-1]), each combination extending combo[0..i) + v by up
  // to order - i - 1 larger indices.
  std::uint64_t pos = static_cast<std::uint64_t>(m);
  int lo = 0;
  for (int i = 0; i < m; ++i) {
    const int q = combo[static_cast<std::size_t>(i)];
    for (int v = lo; v < q; ++v)
      for (int j = 0; j < order - i; ++j) pos = add(pos, c(n - 1 - v, j));
    lo = q + 1;
  }
  return pos;
}

RowContext row_context(const Basis& basis, const std::vector<int>& combo) {
  RowContext row;
  row.num_observables = static_cast<int>(combo.size());
  for (int i : combo) {
    const ObservableInfo& o = basis.obs[static_cast<std::size_t>(i)];
    if (o.kind == Observable::Kind::kOutput) {
      ++row.num_outputs;
      row.add_output_index(o.output_share_index);
    } else {
      ++row.num_internal;
    }
  }
  return row;
}

void union_pass(const Basis& basis, const Checker& checker,
                const QInfoStore& qinfo, sched::CancelToken* cancel,
                VerifyResult& result) {
  if (qinfo.size() == 0) return;
  const int n = qinfo.num_observables();
  const int top = qinfo.max_k();
  const std::size_t S = static_cast<std::size_t>(qinfo.num_secrets());
  const BinomialTable c(n, top);

  struct Violation {
    std::vector<int> combo;
    Mask alpha;
    std::string reason;
  };
  std::optional<Violation> first;  // lexicographically first so far

  // U over every rank of size k - 1 (read) and of size k (written); the top
  // size feeds no later size, so its U lives in `u_top` one Q at a time.
  std::vector<Mask> below, level, u_top(S);
  std::vector<int> combo;
  std::vector<std::uint64_t> head(static_cast<std::size_t>(top));
  std::vector<std::uint64_t> tail(static_cast<std::size_t>(top));
  std::string reason;
  std::uint64_t visited = 0;
  for (int k = 1; k <= top; ++k) {
    const bool keep = k < top;
    const std::uint64_t ranks = c(n, k);
    if (keep) level.assign(static_cast<std::size_t>(ranks) * S, Mask{});
    // Rank of Q minus q_j among size-(k-1) combinations, from the rank
    // formula of util/combinations.h: element i < j keeps position i and
    // contributes head[i] = C(n-1-q_i, k-1-i); element i > j moves to
    // position i-1 and contributes tail[i] = C(n-1-q_i, k-i).
    const std::uint64_t sub_base = c(n, k - 1) - 1;
    bool seek = true;  // no violation of size k found yet
    combo.resize(static_cast<std::size_t>(k));
    std::iota(combo.begin(), combo.end(), 0);
    for (std::uint64_t r = 0; r < ranks; ++r) {
      if (cancel && (++visited & 1023) == 0 && cancel->expired()) {
        result.timed_out = true;
        cancel->acknowledge();
        return;
      }
      Mask* u = keep ? level.data() + r * S : u_top.data();
      if (!keep) std::fill(u_top.begin(), u_top.end(), Mask{});
      const Mask* v = qinfo.find(k, r);
      if (v) std::copy(v, v + S, u);
      if (k > 1) {
        std::uint64_t tails = 0;
        for (int i = 0; i < k; ++i) {
          const int m = n - 1 - combo[static_cast<std::size_t>(i)];
          head[static_cast<std::size_t>(i)] = c(m, k - 1 - i);
          tail[static_cast<std::size_t>(i)] = c(m, k - i);
          tails += tail[static_cast<std::size_t>(i)];
        }
        std::uint64_t heads = 0;
        for (int j = 0; j < k; ++j) {
          tails -= tail[static_cast<std::size_t>(j)];
          const Mask* w = below.data() + (sub_base - heads - tails) * S;
          for (std::size_t s = 0; s < S; ++s) u[s] |= w[s];
          heads += head[static_cast<std::size_t>(j)];
        }
      }
      if (v && seek) {
        if (first && !(combo < first->combo)) {
          seek = false;  // every later Q of this size sorts after `first`
        } else if (checker.union_violates(std::span<const Mask>(u, S),
                                          row_context(basis, combo),
                                          &reason)) {
          Mask alpha;
          for (std::size_t s = 0; s < S; ++s) alpha |= u[s];
          first = Violation{combo, alpha, reason};
          seek = false;
        }
      }
      if (!keep && !seek) break;
      next_combination(combo, n);
    }
    below.swap(level);
  }

  if (first) {
    result.secure = false;
    CounterExample ce;
    for (int i : first->combo)
      ce.observables.push_back(basis.obs[static_cast<std::size_t>(i)].name);
    ce.alpha = first->alpha;
    ce.reason = "set-level dependency check failed: " + first->reason;
    result.counterexample = std::move(ce);
  }
}

ReportAssembler::ReportAssembler(std::shared_ptr<const Basis> basis,
                                 VerifyOptions options)
    : basis_(std::move(basis)),
      options_(std::move(options)),
      qinfo_(static_cast<int>(basis_->size())) {
  // The assembler renders from already-complete partials: nothing here may
  // block on a wall clock or report live progress.
  options_.time_limit = 0.0;
  options_.progress = nullptr;
}

ReportAssembler::~ReportAssembler() = default;

void ReportAssembler::add(PartialReport part) {
  ++parts_;
  const int N = static_cast<int>(basis_->size());
  combinations_ += part.combinations;
  coefficients_ += part.coefficients;
  prefix_memo_.hits += part.prefix_memo.hits;
  prefix_memo_.misses += part.prefix_memo.misses;
  region_cache_.hits += part.region_cache.hits;
  region_cache_.misses += part.region_cache.misses;
  convolution_seconds_ += part.convolution_seconds;
  verification_seconds_ += part.verification_seconds;

  if (part.has_failure) {
    std::vector<int> combo =
        sched::shard_combination({part.k}, N, options_.order, part.fail_rank);
    const bool largest = options_.search_order == SearchOrder::kLargestFirst;
    if (!best_ || combo_before(combo, best_->combo, largest))
      best_ = BestFailure{std::move(combo), part.fail_alpha,
                          std::move(part.fail_reason)};
  }

  if (options_.union_check && options_.notion != Notion::kProbing) {
    const std::size_t S = basis_->vars.secret_vars.size();
    for (std::size_t i = 0; i < part.dep_ranks.size(); ++i)
      qinfo_.insert(part.k > 0 ? part.k : part.dep_sizes[i],
                    part.dep_ranks[i],
                    std::span<const Mask>(part.dep_masks).subspan(i * S, S));
  }
}

CounterExample ReportAssembler::failure_counterexample() const {
  CounterExample ce;
  for (int i : best_->combo)
    ce.observables.push_back(basis_->obs[static_cast<std::size_t>(i)].name);
  ce.alpha = best_->alpha;
  ce.reason = best_->reason;
  return ce;
}

void ReportAssembler::set_basis_stats(std::uint64_t frozen_nodes,
                                      std::uint64_t frozen_bytes,
                                      std::uint64_t base_coefficients,
                                      double build_seconds) {
  basis_stats_ = BasisStats{frozen_nodes, frozen_bytes, base_coefficients,
                            build_seconds};
}

VerifyResult ReportAssembler::finalize(sched::CancelToken* cancel,
                                       bool interrupted) {
  const std::uint64_t base_coefficients =
      basis_stats_ ? basis_stats_->base_coefficients
                   : basis_->base_coefficients;
  const double build_seconds =
      basis_stats_ ? basis_stats_->build_seconds : basis_->build_seconds;
  const bool union_active =
      options_.union_check && options_.notion != Notion::kProbing;

  VerifyResult result;
  result.stats.num_observables = basis_->size();
  result.stats.combinations = combinations_;
  result.stats.coefficients = base_coefficients + coefficients_;
  result.stats.prefix_memo = prefix_memo_;
  result.stats.region_cache = region_cache_;
  result.stats.qinfo_entries = qinfo_.size();
  result.stats.qinfo_peak_bytes = qinfo_.peak_bytes();
  result.stats.frozen_nodes =
      basis_stats_ ? static_cast<std::size_t>(basis_stats_->frozen_nodes)
                   : basis_->frozen.node_count();
  result.stats.frozen_bytes =
      basis_stats_ ? static_cast<std::size_t>(basis_stats_->frozen_bytes)
                   : (basis_->frozen.empty() ? 0 : basis_->frozen.bytes());
  // dd.cache_bits is configuration, not measurement (the deterministic
  // report keeps it): what the canonical engine's manager is sized with.
  const bool needs_thaw = backend_info(options_.engine).needs_thaw;
  result.stats.dd_cache_bits = needs_thaw ? options_.cache_bits : 0;
  result.stats.portfolio.chosen = options_.engine;
  result.stats.portfolio.base_coefficients = base_coefficients;

  // Canonical phase set in first-use order, whatever engines produced the
  // partials: the report's shape is a function of the *canonical* options,
  // which is what lets a resumed mixed-engine scan byte-match an
  // uninterrupted one under --deterministic-report.
  if (needs_thaw) result.stats.timers.add("thaw", 0.0);
  result.stats.timers.add("base", build_seconds);
  if (combinations_ > 0) {
    result.stats.timers.add("convolution", convolution_seconds_);
    result.stats.timers.add("verification", verification_seconds_);
  }

  if (best_) {
    result.secure = false;
    result.counterexample = failure_counterexample();
    if (!interrupted) {
      // Count what a walk in the search order checks: what other workers
      // ran past the witness does not show.
      const int n = static_cast<int>(basis_->size());
      result.stats.combinations = search_position(
          n, options_.order, best_->combo,
          options_.search_order == SearchOrder::kLargestFirst);
      result.stats.qinfo_entries =
          union_active ? result.stats.combinations - 1 : 0;
    }
  } else if (interrupted) {
    result.timed_out = true;
  } else if (union_active) {
    // The set-level pass over the merged store — it reports the first
    // violation in lexicographic order, so the union witness is
    // completion-order independent too.  A bare Checker hosts the pass:
    // union_violates is pure mask arithmetic, so no backend is prepared and
    // the frozen forest is never thawed — finalizing a drained scan costs
    // checkpoint I/O plus this loop, nothing engine-shaped.
    const Checker checker(basis_->vars, options_.notion,
                          options_.joint_share_count);
    ScopedPhase phase(result.stats.timers, "union");
    obs::Span span("union");
    union_pass(*basis_, checker, qinfo_, cancel, result);
  }
  return result;
}

}  // namespace sani::verify
