#pragma once
// Jobs of the engine workload and the production pipeline they run.
//
// A job is the in-process equivalent of `sani verify --file <canonical
// ILANG>` under the production options (auto engine, union check on, the
// default text report): circuit::parse_ilang_string, then verify::verify,
// then the rendered report.  The traced variant runs the same job split at
// the public call into each layer, with a span around every call.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "circuit/spec.h"
#include "verify/types.h"

namespace sani::verify {
struct Basis;
}

namespace perfbench {

class SpanLog;

/// Per-layer counters, summed over the jobs of a run.
using Tally = std::map<std::string, double>;

struct JobSpec {
  std::string gadget;  // registry name (gadgets::by_name)
  int order = 1;
  sani::verify::Notion notion = sani::verify::Notion::kSNI;
  int jobs = 1;        // worker count inside the job
  bool secure = true;  // expected verdict

  /// "keccak-2@2".
  std::string label() const;
  sani::verify::VerifyOptions options() const;
};

/// The jobs of an engine workload (deep-order); empty for any other name.
std::vector<JobSpec> engine_workload(const std::string& name);

/// Canonical ILANG text of the spec's gadget — what the job is handed.
std::string canonical_ilang(const JobSpec& spec);

/// Exactly what `sani verify` prints for the result: the one-line summary,
/// plus the counterexample report when insecure.
std::string render_report(const std::string& label,
                          const sani::verify::VerifyOptions& options,
                          const sani::circuit::Gadget& gadget,
                          const sani::verify::VerifyResult& result,
                          double seconds);

/// Empty when the result and its report carry the expected verdict;
/// otherwise what is wrong.
std::string check_verdict(const JobSpec& spec,
                          const sani::verify::VerifyResult& result,
                          const std::string& report);

/// Machine-independent work of one verification (resolved engine and
/// counts).  Repeats exactly for the same input and options.
std::string work_record(const sani::verify::VerifyResult& result);

struct JobRun {
  double wall_ms = 0.0;
  std::string error;  // empty: verdict as expected
  std::string work;   // work_record of the result
  std::uint64_t combinations = 0;
};

/// The untraced job.
JobRun run_job(const JobSpec& spec, const std::string& ilang);

/// The traced job: one span per public layer call, under a root span "job"
/// with id `job_id`; layer counters are added into `tally`.
JobRun run_job_traced(const JobSpec& spec, const std::string& ilang,
                      SpanLog& log, std::uint64_t job_id, Tally& tally);

/// The cold front half of verify::verify (unfold, observables, basis
/// build), one span per public call; adds the unfolding's node count to
/// `tally`.
std::shared_ptr<const sani::verify::Basis> build_basis_traced(
    const sani::circuit::Gadget& gadget,
    const sani::verify::VerifyOptions& options, SpanLog& log,
    std::uint64_t job_id, Tally& tally);

/// Adds verify_basis' counters to `tally` and its phase split (thaw,
/// convolution, row check, union) as children of span `run_span`.
/// Parallel runs sum worker phases across workers; they are divided by the
/// worker count so the split stays within the call's wall time.
void record_engine(const sani::verify::VerifyResult& result, SpanLog& log,
                   int run_span, Tally& tally);

/// Cross-checks the verdict against the brute-force oracle
/// (verify::verify_bruteforce).  Returns "agree", "skipped" when the job is
/// beyond the oracle's budget, or a description of the disagreement.
std::string oracle_check(const JobSpec& spec, const std::string& ilang,
                         std::uint64_t combinations);

}  // namespace perfbench
