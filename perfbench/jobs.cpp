#include "jobs.h"

#include <cmath>
#include <memory>
#include <sstream>

#include "circuit/ilang.h"
#include "circuit/unfold.h"
#include "gadgets/registry.h"
#include "obs/clock.h"
#include "spans.h"
#include "verify/basis.h"
#include "verify/bruteforce.h"
#include "verify/engine.h"
#include "verify/observables.h"
#include "verify/portfolio.h"
#include "verify/report.h"

namespace perfbench {

using sani::verify::Notion;
namespace circuit = sani::circuit;
namespace verify = sani::verify;

std::string JobSpec::label() const {
  return gadget + "@" + std::to_string(order);
}

verify::VerifyOptions JobSpec::options() const {
  verify::VerifyOptions opt;
  opt.engine = verify::EngineKind::kAuto;
  opt.notion = notion;
  opt.order = order;
  opt.union_check = true;
  opt.jobs = jobs;
  return opt;
}

// Expected verdicts come from the repository's test expectations: the
// refresh gadgets are SNI and the HPC gadgets PINI at their design order
// (pini_test, engine_test).
std::vector<JobSpec> engine_workload(const std::string& name) {
  const Notion sni = Notion::kSNI, pini = Notion::kPINI;
  if (name == "deep-order")
    return {{"sni-refresh-5", 4, sni, 2},
            {"sni-refresh-6", 5, sni, 2},
            {"hpc2-3", 3, pini, 2},
            {"hpc1-3", 3, pini, 2}};
  return {};
}

std::string canonical_ilang(const JobSpec& spec) {
  return circuit::write_ilang_string(sani::gadgets::by_name(spec.gadget));
}

std::string render_report(const std::string& label,
                          const verify::VerifyOptions& options,
                          const circuit::Gadget& gadget,
                          const verify::VerifyResult& result, double seconds) {
  std::string report = verify::summarize(label, options, result, seconds);
  report += "\n";
  if (!result.secure && result.counterexample) {
    const circuit::Unfolded u =
        circuit::unfold(gadget, options.cache_bits, options.var_order);
    report += verify::detailed_report(gadget, u.vars, options, result);
  }
  return report;
}

std::string check_verdict(const JobSpec& spec,
                          const verify::VerifyResult& result,
                          const std::string& report) {
  const std::string want = std::string(spec.secure ? " is " : " is NOT ") +
                           std::to_string(spec.order) + "-" +
                           verify::notion_name(spec.notion) + " (";
  if (result.timed_out) return spec.label() + ": timed out";
  if (result.secure != spec.secure)
    return spec.label() + ": verdict " +
           (result.secure ? "secure" : "insecure") + ", expected " +
           (spec.secure ? "secure" : "insecure");
  if (!spec.secure && !result.counterexample)
    return spec.label() + ": insecure without a counterexample";
  if (report.find(want) == std::string::npos)
    return spec.label() + ": report lacks '" + want + "'";
  return "";
}

std::string work_record(const verify::VerifyResult& result) {
  const verify::VerifyStats& s = result.stats;
  std::ostringstream os;
  os << "engine=" << verify::engine_name(s.portfolio.chosen)
     << " observables=" << s.num_observables
     << " combinations=" << s.combinations;
  // With several workers the coefficient count depends on which worker ran
  // which shard (each worker's prefix memo spans its own shards), so it is
  // not part of the exact record there.
  if (s.parallel.jobs <= 1) os << " coefficients=" << s.coefficients;
  os
     << " base_coefficients=" << s.portfolio.base_coefficients
     << " frozen_nodes=" << s.frozen_nodes
     << " replayed=" << s.incremental.combinations_skipped
     << " rechecked=" << s.incremental.combinations_rechecked;
  return os.str();
}

JobRun run_job(const JobSpec& spec, const std::string& ilang) {
  const verify::VerifyOptions opt = spec.options();
  const std::int64_t t0 = sani::obs::Clock::now_ns();
  const circuit::Gadget g = circuit::parse_ilang_string(ilang);
  sani::obs::Stopwatch watch;
  const verify::VerifyResult r = verify::verify(g, opt);
  const std::string report =
      render_report(spec.label(), opt, g, r, watch.seconds());
  JobRun run;
  run.wall_ms = static_cast<double>(sani::obs::Clock::now_ns() - t0) * 1e-6;
  run.error = check_verdict(spec, r, report);
  run.work = work_record(r);
  run.combinations = r.stats.combinations;
  return run;
}

JobRun run_job_traced(const JobSpec& spec, const std::string& ilang,
                      SpanLog& log, std::uint64_t job_id, Tally& tally) {
  const verify::VerifyOptions opt = spec.options();
  JobRun run;
  ScopedSpan job(&log, "job", job_id);
  {
    circuit::Gadget g = [&] {
      ScopedSpan s(&log, "circuit.parse", job_id);
      return circuit::parse_ilang_string(ilang);
    }();
    sani::obs::Stopwatch watch;
    // verify::verify, one public call at a time.
    std::shared_ptr<const verify::Basis> basis =
        build_basis_traced(g, opt, log, job_id, tally);
    verify::VerifyResult r;
    {
      ScopedSpan s(&log, "verify.run", job_id);
      r = verify::verify_basis(basis, opt);
      s.close();
      record_engine(r, log, s.id(), tally);
    }
    std::string report;
    {
      ScopedSpan s(&log, "verify.report", job_id);
      report = render_report(spec.label(), opt, g, r, watch.seconds());
    }
    run.error = check_verdict(spec, r, report);
    run.work = work_record(r);
    run.combinations = r.stats.combinations;
  }
  job.close();
  run.wall_ms = log.duration_ms(job.id());
  return run;
}

std::shared_ptr<const verify::Basis> build_basis_traced(
    const circuit::Gadget& gadget, const verify::VerifyOptions& options,
    SpanLog& log, std::uint64_t job_id, Tally& tally) {
  circuit::Unfolded unfolded = [&] {
    ScopedSpan s(&log, "circuit.unfold", job_id);
    return circuit::unfold(
        gadget, verify::suggest_unfold_cache_bits(gadget, options.cache_bits),
        options.var_order);
  }();
  tally["circuit.unfold_nodes"] +=
      static_cast<double>(unfolded.manager->stats().peak_nodes);
  const verify::ObservableSet observables = [&] {
    ScopedSpan s(&log, "verify.observables", job_id);
    return verify::build_observables(gadget, unfolded, options.probes);
  }();
  ScopedSpan s(&log, "verify.basis", job_id);
  return verify::build_basis(unfolded, observables, options.engine);
}

void record_engine(const verify::VerifyResult& result, SpanLog& log,
                   int run_span, Tally& tally) {
  const verify::VerifyStats& s = result.stats;
  const double workers =
      s.parallel.jobs > 1 ? static_cast<double>(s.parallel.jobs) : 1.0;
  auto phase = [&](const char* name, const char* timer, double divisor) {
    log.add_phase(run_span, name,
                  static_cast<std::int64_t>(s.timers.get(timer) / divisor *
                                            1e9));
  };
  // "base" is the basis build, timed outside the call by its own span.
  phase("verify.thaw", "thaw", workers);
  phase("verify.convolution", "convolution", workers);
  phase("verify.rowcheck", "verification", workers);
  phase("verify.union", "union", 1.0);

  auto add = [&](const char* key, double v) { tally[key] += v; };
  add("verify.combinations", static_cast<double>(s.combinations));
  add("spectral.coefficients", static_cast<double>(s.coefficients));
  add("spectral.arena_grows", static_cast<double>(s.arena_grows));
  add("verify.base_coefficients",
      static_cast<double>(s.portfolio.base_coefficients));
  add("verify.frozen_nodes", static_cast<double>(s.frozen_nodes));
  add("verify.qinfo_peak_bytes", static_cast<double>(s.qinfo_peak_bytes));
  add("verify.region_cache_hits", static_cast<double>(s.region_cache.hits));
  add("verify.region_cache_lookups",
      static_cast<double>(s.region_cache.hits + s.region_cache.misses));
  add("verify.prefix_memo_hits", static_cast<double>(s.prefix_memo.hits));
  add("verify.prefix_memo_lookups",
      static_cast<double>(s.prefix_memo.hits + s.prefix_memo.misses));
  add("dd.cache_hits", static_cast<double>(s.dd_cache_hits));
  add("dd.cache_lookups",
      static_cast<double>(s.dd_cache_hits + s.dd_cache_misses));
  add("dd.peak_nodes", static_cast<double>(s.dd_peak_nodes));
  add("dd.gc_runs", static_cast<double>(s.dd_gc_runs));
  add("sched.shards_total", static_cast<double>(s.parallel.shards_total));
  add("sched.shards_stolen", static_cast<double>(s.parallel.shards_stolen));
  add("verify.cones_total", static_cast<double>(s.incremental.cones_total));
  add("verify.cones_reused", static_cast<double>(s.incremental.cones_reused));
  add("verify.incremental_replayed",
      static_cast<double>(s.incremental.combinations_skipped));
  add("verify.incremental_combinations",
      static_cast<double>(s.incremental.combinations_skipped +
                          s.incremental.combinations_rechecked));
}

std::string oracle_check(const JobSpec& spec, const std::string& ilang,
                         std::uint64_t combinations) {
  // The oracle tabulates 2^inputs assignments per combination, at roughly
  // 25 ns per assignment; 2^28 steps keep a job's cross-check to a few
  // seconds.
  constexpr double kBudget = 268435456.0;
  const circuit::Gadget g = circuit::parse_ilang_string(ilang);
  const double inputs = static_cast<double>(g.netlist.inputs().size());
  if (inputs > 20 ||
      static_cast<double>(combinations) * std::exp2(inputs) > kBudget)
    return "skipped";
  const verify::VerifyResult r = verify::verify_bruteforce(g, spec.options());
  if (r.secure != spec.secure)
    return spec.label() + ": oracle says " +
           (r.secure ? "secure" : "insecure") + ", expected " +
           (spec.secure ? "secure" : "insecure");
  return "agree";
}

}  // namespace perfbench
