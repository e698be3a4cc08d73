// sani_perfbench — the benchmark of the sani production path.
//
//   sani_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// Workloads (perfbench/WORKLOADS.md gives why each was chosen):
//   deep-order    high-order refresh and HPC gadgets, 2 workers per job
//   resubmit      repeat and edited submissions to an in-process daemon
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 alternates untraced and traced passes (resubmit: untraced and
// traced store passes) and reports the per-layer metrics: mean self time
// per job of every layer call, the engine's own phase split, and counters.
//
// Output: a human-readable block (seed, job mix, sample counts, every
// metric with its unit, the work fingerprint), then as the last line one
// JSON object {"correct","attempted","failed","metrics"}.  Exit status 0
// when every verdict matched its expected value and the work repeated
// exactly, 1 otherwise, 64 on a usage error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "daemon/server.h"
#include "jobs.h"
#include "obs/clock.h"
#include "resubmit.h"
#include "spans.h"

namespace fs = std::filesystem;
using sani::obs::Clock;

namespace perfbench {
namespace {

// Set-up (input generation, warm-up, daemon and store start) runs at least
// kMinSetups times per run, and more while less than kSetupSeconds have been
// spent on it; setup_s is the median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kSetupSeconds = 2.0;

bool more_setups(const std::vector<double>& setups) {
  double spent = 0.0;
  for (double s : setups) spent += s;
  const int n = static_cast<int>(setups.size());
  return n < kMinSetups || (n < kMaxSetups && spent < kSetupSeconds);
}

// Client connections and daemon executors of the resubmit workload.
constexpr int kClients = 2;
// Requests of the serial in-process store pass (fingerprint and traced
// store layers): eight per family.
constexpr std::size_t kStorePassRequests = 32;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::vector<std::string> errors;
  std::vector<std::string> lines;  // human-readable report
  std::string fingerprint;         // exact work record of the run
};

double seconds_since(std::int64_t t0) {
  return static_cast<double>(Clock::now_ns() - t0) * 1e-9;
}

/// Quantile q by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string fnv1a_hex(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Latency samples grouped by job type.
struct Samples {
  std::map<std::string, std::vector<double>> by_type;  // ms

  void add(const std::string& type, double ms) { by_type[type].push_back(ms); }
  std::vector<double> all() const {
    std::vector<double> v;
    for (const auto& [type, ms] : by_type)
      v.insert(v.end(), ms.begin(), ms.end());
    return v;
  }
  /// Geometric mean of the per-type medians: every type weighs the same.
  double geomean_of_medians() const {
    double log_sum = 0.0;
    for (const auto& [type, ms] : by_type) log_sum += std::log(median(ms));
    return by_type.empty()
               ? 0.0
               : std::exp(log_sum / static_cast<double>(by_type.size()));
  }
  /// Sum over types of the mean latency (a pass-shaped total).
  double sum_of_means() const {
    double s = 0.0;
    for (const auto& [type, ms] : by_type) {
      double t = 0.0;
      for (double x : ms) t += x;
      s += t / static_cast<double>(ms.size());
    }
    return s;
  }
};

void add_end_to_end(Outcome& out, double setup_s, double jobs_per_s,
                    double p50_ms, double p90_ms, const Samples& samples,
                    double rss_mb) {
  out.metrics = {
      {"setup_s", setup_s, "s"},
      {"jobs_per_s", jobs_per_s, "1/s"},
      {"latency_p50_ms", p50_ms, "ms"},
      {"latency_p90_ms", p90_ms, "ms"},
      {"geomean_job_ms", samples.geomean_of_medians(), "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  out.lines.push_back("latency samples: " +
                      std::to_string(samples.all().size()) + " over " +
                      std::to_string(samples.by_type.size()) + " job types");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The per-layer metrics from a traced run's spans and counters.
/// `jobs` is the number of traced jobs the spans cover.
void add_per_layer(Outcome& out, const SpanLog& log, const Tally& t,
                   double jobs, double overhead_frac) {
  const std::map<std::string, double> self = log.self_ms();
  auto self_per_job = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : it->second / jobs;
  };
  auto per_job = [&](const char* key) {
    auto it = t.find(key);
    return it == t.end() ? 0.0 : it->second / jobs;
  };
  auto sum = [&](const char* key) {
    auto it = t.find(key);
    return it == t.end() ? 0.0 : it->second;
  };
  const double job_ms = log.total_ms("job");
  std::vector<Metric> m = {
      {"circuit.parse_ms", self_per_job("circuit.parse"), "ms"},
      {"circuit.unfold_ms", self_per_job("circuit.unfold"), "ms"},
      {"circuit.unfold_nodes", per_job("circuit.unfold_nodes"), "count"},
      {"verify.observables_ms", self_per_job("verify.observables"), "ms"},
      {"verify.basis_ms", self_per_job("verify.basis"), "ms"},
      {"verify.base_coefficients", per_job("verify.base_coefficients"),
       "count"},
      {"verify.frozen_nodes", per_job("verify.frozen_nodes"), "count"},
      {"verify.run_ms", log.total_ms("verify.run") / jobs, "ms"},
      {"verify.rowcheck_ms", self_per_job("verify.rowcheck"), "ms"},
      {"verify.union_ms", self_per_job("verify.union"), "ms"},
      {"verify.convolution_ms", self_per_job("verify.convolution"), "ms"},
      {"verify.thaw_ms", self_per_job("verify.thaw"), "ms"},
      {"verify.run_other_ms", self_per_job("verify.run"), "ms"},
      {"verify.incremental_ms", self_per_job("verify.incremental"), "ms"},
      {"verify.report_ms", self_per_job("verify.report"), "ms"},
      {"verify.combinations", per_job("verify.combinations"), "count"},
      {"verify.region_cache_hit_ratio",
       ratio(sum("verify.region_cache_hits"),
             sum("verify.region_cache_lookups")),
       "frac"},
      {"verify.region_cache_lookups", per_job("verify.region_cache_lookups"),
       "count"},
      {"verify.prefix_memo_hit_ratio",
       ratio(sum("verify.prefix_memo_hits"), sum("verify.prefix_memo_lookups")),
       "frac"},
      {"verify.prefix_memo_lookups", per_job("verify.prefix_memo_lookups"),
       "count"},
      {"verify.qinfo_peak_bytes", per_job("verify.qinfo_peak_bytes"), "bytes"},
      {"verify.incremental_replay_ratio",
       ratio(sum("verify.incremental_replayed"),
             sum("verify.incremental_combinations")),
       "frac"},
      {"verify.cones_reused_ratio",
       ratio(sum("verify.cones_reused"), sum("verify.cones_total")), "frac"},
      {"spectral.coefficients", per_job("spectral.coefficients"), "count"},
      {"spectral.arena_grows", per_job("spectral.arena_grows"), "count"},
      {"dd.cache_hit_ratio",
       ratio(sum("dd.cache_hits"), sum("dd.cache_lookups")),
       "frac"},
      {"dd.cache_lookups", per_job("dd.cache_lookups"), "count"},
      {"dd.peak_nodes", per_job("dd.peak_nodes"), "count"},
      {"dd.gc_runs", per_job("dd.gc_runs"), "count"},
      {"sched.shards_total", per_job("sched.shards_total"), "count"},
      {"sched.shards_stolen", per_job("sched.shards_stolen"), "count"},
      {"sched.serial_tail_frac",
       ratio(log.total_ms("verify.union"), log.total_ms("verify.run")), "frac"},
      {"store.key_ms", self_per_job("store.key"), "ms"},
      {"store.load_ms", self_per_job("store.load"), "ms"},
      {"store.save_ms", self_per_job("store.save"), "ms"},
      {"store.hit_ratio", ratio(sum("store.hits"), sum("store.lookups")),
       "frac"},
      {"store.bytes_written", per_job("store.bytes_written"), "bytes"},
      {"store.quarantined", sum("store.quarantined"), "count"},
      {"daemon.admit_ms", sum("daemon.admit_ms"), "ms"},
      {"daemon.queue_wait_ms", sum("daemon.queue_wait_ms"), "ms"},
      {"daemon.exec_ms", sum("daemon.exec_ms"), "ms"},
      {"daemon.dedupe_ratio", sum("daemon.dedupe_ratio"), "frac"},
      {"daemon.store_hit_ratio", sum("daemon.store_hit_ratio"), "frac"},
      {"daemon.rejected", sum("daemon.rejected"), "count"},
      {"trace.job_wall_ms", job_ms / jobs, "ms"},
      {"trace.unattributed_frac", ratio(self_per_job("job") * jobs, job_ms),
       "frac"},
      {"trace.overhead_frac", overhead_frac, "frac"},
      {"trace.jobs", jobs, "count"},
  };
  out.metrics = std::move(m);
}

void write_trace(Outcome& out, const SpanLog& log, const std::string& path) {
  out.lines.push_back(log.write_chrome_trace(path)
                          ? "spans: " + std::to_string(log.size()) + " -> " +
                                path
                          : "warning: cannot write " + path);
}

/// Brute-force cross-check of every job within the oracle's budget, once
/// per run, outside the timed loop.
void cross_check(Outcome& out, const std::vector<JobSpec>& jobs,
                 const std::vector<std::string>& inputs,
                 const std::vector<std::uint64_t>& combinations) {
  int agreed = 0, skipped = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::string r = oracle_check(jobs[j], inputs[j], combinations[j]);
    if (r == "agree") ++agreed;
    else if (r == "skipped") ++skipped;
    else out.errors.push_back(r);
  }
  out.lines.push_back("oracle cross-check: " + std::to_string(agreed) +
                      " agree, " + std::to_string(skipped) +
                      " beyond budget, " +
                      std::to_string(jobs.size() - agreed - skipped) +
                      " disagree");
}

// ---- engine workload -------------------------------------------------------

Outcome run_engine_workload(const std::vector<JobSpec>& jobs,
                            std::uint64_t seed, double seconds, bool trace,
                            const std::string& trace_path) {
  Outcome out;
  std::vector<std::string> inputs;
  std::vector<double> setups;
  while (more_setups(setups)) {
    const std::int64_t t0 = Clock::now_ns();
    inputs.clear();
    for (const JobSpec& spec : jobs) inputs.push_back(canonical_ilang(spec));
    for (std::size_t j = 0; j < jobs.size(); ++j) run_job(jobs[j], inputs[j]);
    setups.push_back(seconds_since(t0));
  }

  std::mt19937_64 rng(seed);
  std::vector<std::size_t> order(jobs.size());
  for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
  std::map<std::string, std::string> work;  // label -> first work record
  std::map<std::string, std::uint64_t> combinations;
  auto check = [&](const JobSpec& spec, const JobRun& run) {
    ++out.attempted;
    if (!run.error.empty()) out.errors.push_back(run.error);
    auto [it, fresh] = work.try_emplace(spec.label(), run.work);
    if (!fresh && it->second != run.work)
      out.errors.push_back(spec.label() + ": work changed between passes: " +
                           it->second + " vs " + run.work);
    combinations[spec.label()] = run.combinations;
  };

  Samples untraced, traced;
  SpanLog log;
  Tally tally;
  std::uint64_t traced_jobs = 0;
  std::size_t passes = 0;
  std::vector<double> pass_s;  // wall time of each untraced pass
  std::vector<double> pass_p50, pass_p90;  // their latency percentiles
  const std::int64_t start = Clock::now_ns();
  while (passes == 0 || seconds_since(start) < seconds ||
         (trace && passes < 2)) {
    std::shuffle(order.begin(), order.end(), rng);
    const bool traced_pass = trace && passes % 2 == 1;
    const std::int64_t pass_start = Clock::now_ns();
    std::vector<double> pass_ms;
    for (std::size_t j : order) {
      const JobSpec& spec = jobs[j];
      if (traced_pass) {
        const JobRun run = run_job_traced(spec, inputs[j], log, traced_jobs++,
                                          tally);
        traced.add(spec.label(), run.wall_ms);
        check(spec, run);
      } else {
        const JobRun run = run_job(spec, inputs[j]);
        untraced.add(spec.label(), run.wall_ms);
        pass_ms.push_back(run.wall_ms);
        check(spec, run);
      }
    }
    if (!traced_pass) {
      pass_s.push_back(seconds_since(pass_start));
      pass_p50.push_back(quantile(pass_ms, 0.5));
      pass_p90.push_back(quantile(pass_ms, 0.9));
    }
    ++passes;
  }
  const double rss = peak_rss_mb();

  std::ostringstream mix;
  mix << "job mix per pass:";
  for (const JobSpec& spec : jobs) mix << ' ' << spec.label();
  out.lines.push_back(mix.str());
  out.lines.push_back("passes: " + std::to_string(passes));
  for (const auto& [type, ms] : untraced.by_type) {
    std::ostringstream os;
    os << "job " << type << ": median " << median(ms) << " ms, range "
       << quantile(ms, 0.0) << " to " << quantile(ms, 1.0) << " ms over "
       << ms.size() << " untraced runs";
    out.lines.push_back(os.str());
  }
  if (trace) {
    add_per_layer(out, log, tally, static_cast<double>(traced_jobs),
                  traced.sum_of_means() / untraced.sum_of_means() - 1.0);
    write_trace(out, log, trace_path);
  } else {
    // Every pass runs the same jobs, so throughput and percentiles are taken
    // per pass and the median pass is reported: a burst of outside load
    // during a few passes does not move them.
    add_end_to_end(out, median(setups),
                   static_cast<double>(jobs.size()) / median(pass_s),
                   median(pass_p50), median(pass_p90), untraced, rss);
  }

  std::vector<std::uint64_t> counts;
  for (const JobSpec& spec : jobs) counts.push_back(combinations[spec.label()]);
  cross_check(out, jobs, inputs, counts);

  std::string all_work;
  for (const auto& [label, rec] : work) {
    out.lines.push_back("work " + label + ": " + rec);
    all_work += label + ": " + rec + "\n";
  }
  out.fingerprint = fnv1a_hex(all_work);
  return out;
}

// ---- resubmit -------------------------------------------------------------

struct Daemon {
  std::unique_ptr<sani::daemon::Server> server;
  std::string store_dir;
};

Daemon start_daemon(const std::string& dir) {
  Daemon d;
  d.store_dir = dir + "/daemon-store";
  fs::remove_all(d.store_dir);
  fs::remove(dir + "/d.sock");
  sani::daemon::Server::Options opt;
  opt.socket_path = dir + "/d.sock";
  opt.store_dir = d.store_dir;
  opt.executors = kClients;
  d.server = std::make_unique<sani::daemon::Server>(opt);
  d.server->start();
  return d;
}

/// Completions per second over the median window of kRateWindow
/// consecutive completions, so a burst of outside load during a few windows
/// does not move it.
double windowed_rate(const LoopResult& loop) {
  constexpr std::size_t kRateWindow = 16;
  std::vector<std::int64_t> done;
  for (const Exchange& ex : loop.exchanges)
    if (ex.error.empty()) done.push_back(ex.result_ns);
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  for (std::size_t i = 0; i + kRateWindow < done.size(); i += kRateWindow)
    rates.push_back(static_cast<double>(kRateWindow) /
                    (static_cast<double>(done[i + kRateWindow] - done[i]) *
                     1e-9));
  if (rates.empty())
    return static_cast<double>(done.size()) / std::max(loop.wall_s, 1e-9);
  return median(rates);
}

Outcome run_resubmit(std::uint64_t seed, double seconds, bool trace,
                     const std::string& dir, const std::string& trace_path) {
  Outcome out;
  const std::vector<JobSpec>& families = resubmit_families();
  // The 2-client loop completes 20 to 40 requests per second on a 4-core
  // x86 container, depending on outside load.  A loop that runs out of
  // stream ends early; its rate is still measured over the requests it
  // completed.
  const std::size_t n = static_cast<std::size_t>(96.0 * seconds) + 64;

  std::vector<Request> stream;
  std::vector<std::string> texts;
  std::vector<std::uint64_t> combinations;
  Daemon daemon;
  std::vector<double> setups;
  while (more_setups(setups)) {
    if (daemon.server) {
      daemon.server->stop();
      daemon.server.reset();
    }
    const std::int64_t t0 = Clock::now_ns();
    stream = make_stream(seed, n);
    texts.clear();
    combinations.clear();
    for (const JobSpec& f : families) {
      texts.push_back(canonical_ilang(f));
      combinations.push_back(run_job(f, texts.back()).combinations);
    }
    daemon = start_daemon(dir);
    setups.push_back(seconds_since(t0));
  }

  const LoopResult loop =
      run_closed_loop(dir + "/d.sock", stream, seconds, kClients);
  const double rss = peak_rss_mb();
  daemon.server->stop();
  std::uint64_t quarantined = 0;
  if (fs::exists(daemon.store_dir + "/quarantine"))
    for ([[maybe_unused]] const auto& e :
         fs::directory_iterator(daemon.store_dir + "/quarantine"))
      ++quarantined;

  Samples samples;
  std::map<RequestKind, std::uint64_t> kinds;
  double admit = 0, wait = 0, exec = 0;
  std::uint64_t ok = 0, deduped = 0, hits = 0, rejected = 0;
  for (const Exchange& ex : loop.exchanges) {
    ++out.attempted;
    const Request& req = stream[ex.index];
    ++kinds[req.kind];
    if (ex.rejected) ++rejected;
    if (!ex.error.empty()) {
      out.errors.push_back("request " + std::to_string(ex.index) + ": " +
                           ex.error);
      continue;
    }
    ++ok;
    samples.add(families[req.family].label() + " " + kind_name(req.kind),
                static_cast<double>(ex.result_ns - ex.sent_ns) * 1e-6);
    admit += static_cast<double>(ex.accepted_ns - ex.sent_ns) * 1e-6;
    wait += static_cast<double>(ex.running_ns - ex.accepted_ns) * 1e-6;
    exec += static_cast<double>(ex.result_ns - ex.running_ns) * 1e-6;
    deduped += ex.deduped ? 1 : 0;
    hits += ex.store_hit ? 1 : 0;
  }
  if (loop.exhausted)
    out.lines.push_back("note: the request stream ran out before the deadline");
  std::ostringstream mix;
  mix << "requests: " << loop.exchanges.size() << " from " << kClients
      << " closed-loop clients; kinds:";
  for (const auto& [kind, count] : kinds)
    mix << ' ' << kind_name(kind) << '=' << count;
  mix << "; store hits " << hits << '/' << ok << ", deduped " << deduped
      << '/' << ok;
  out.lines.push_back(mix.str());

  // The serial store pass: the exact work fingerprint, and with tracing the
  // store and engine layers.
  const StorePass plain = run_store_pass(stream, kStorePassRequests,
                                         dir + "/pass-store", nullptr, nullptr);
  out.attempted += plain.work.size();
  for (const std::string& e : plain.errors) out.errors.push_back(e);
  std::string all_work;
  for (std::size_t i = 0; i < plain.work.size(); ++i) {
    const std::string rec = std::to_string(i) + " " +
                            families[stream[i].family].label() + " " +
                            kind_name(stream[i].kind) + ": " + plain.work[i];
    out.lines.push_back("work " + rec);
    all_work += rec + "\n";
  }
  out.fingerprint = fnv1a_hex(all_work);

  if (trace) {
    SpanLog log;
    Tally tally;
    const StorePass traced = run_store_pass(
        stream, kStorePassRequests, dir + "/traced-store", &log, &tally);
    out.attempted += traced.work.size();
    for (const std::string& e : traced.errors) out.errors.push_back(e);
    if (traced.work != plain.work)
      out.errors.push_back(
          "traced store pass did different work than store::verify_with_store");
    const double jobs = static_cast<double>(traced.work.size());
    tally["store.lookups"] = jobs;
    tally["store.hits"] = static_cast<double>(traced.hits);
    tally["store.bytes_written"] = static_cast<double>(traced.bytes);
    tally["store.quarantined"] =
        static_cast<double>(traced.quarantined + plain.quarantined +
                            quarantined);
    // Daemon entries are already per-request means over the closed loop.
    const double okd = static_cast<double>(ok);
    tally["daemon.admit_ms"] = ratio(admit, okd);
    tally["daemon.queue_wait_ms"] = ratio(wait, okd);
    tally["daemon.exec_ms"] = ratio(exec, okd);
    tally["daemon.dedupe_ratio"] = ratio(static_cast<double>(deduped), okd);
    tally["daemon.store_hit_ratio"] = ratio(static_cast<double>(hits), okd);
    tally["daemon.rejected"] = static_cast<double>(rejected);
    add_per_layer(out, log, tally, jobs, traced.wall_ms / plain.wall_ms - 1.0);
    write_trace(out, log, trace_path);
  } else {
    const std::vector<double> all = samples.all();
    add_end_to_end(out, median(setups), windowed_rate(loop),
                   quantile(all, 0.5), quantile(all, 0.9), samples, rss);
  }
  // Edits preserve each family's function, so the unedited gadget stands
  // for all of its requests.
  cross_check(out, families, texts, combinations);
  if (plain.quarantined + quarantined > 0)
    out.errors.push_back("store quarantined " +
                         std::to_string(plain.quarantined + quarantined) +
                         " objects");
  return out;
}

// ---- output ---------------------------------------------------------------

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int usage(const std::string& why) {
  std::cerr << "sani_perfbench: " << why << "\n"
            << "usage: sani_perfbench --workload deep-order|resubmit "
               "--seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n";
  return 64;
}

int main_impl(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0 || i + 1 >= argc)
      return usage("bad argument '" + a + "'");
    args[a.substr(2)] = argv[++i];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace"})
    if (!args.count(key)) return usage(std::string("missing --") + key);
  const std::string workload = args["workload"];
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  try {
    seed = std::stoull(args["seed"]);
    seconds = std::stod(args["seconds"]);
    if (args["trace"] != "0" && args["trace"] != "1")
      return usage("--trace must be 0 or 1");
    trace = args["trace"] == "1";
  } catch (const std::exception&) {
    return usage("--seed and --seconds must be numbers");
  }
  if (!(seconds > 0 && seconds <= 600)) return usage("--seconds out of range");
  const std::vector<JobSpec> jobs = engine_workload(workload);
  if (jobs.empty() && workload != "resubmit")
    return usage("unknown workload '" + workload + "'");

  const std::string base =
      args.count("work-dir") ? args["work-dir"] : ".bench_build/perfbench-work";
  const std::string dir = base + "/run-" + std::to_string(::getpid());
  const std::string trace_path = base + "/trace-" + workload + ".json";

  Outcome out;
  std::error_code ec;  // cleanup is best-effort
  try {
    fs::create_directories(dir);
    out = jobs.empty()
              ? run_resubmit(seed, seconds, trace, dir, trace_path)
              : run_engine_workload(jobs, seed, seconds, trace, trace_path);
  } catch (const std::exception& e) {
    fs::remove_all(dir, ec);
    std::cerr << "sani_perfbench: " << workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  fs::remove_all(dir, ec);

  std::cout << "workload " << workload << " seed " << seed << " seconds "
            << seconds << " trace " << trace << "\n";
  for (const std::string& line : out.lines) std::cout << line << "\n";
  for (const Metric& m : out.metrics)
    std::cout << "metric " << m.name << " = " << number(m.value) << " "
              << m.unit << "\n";
  std::cout << "fingerprint " << out.fingerprint << "\n";
  const std::size_t shown = std::min<std::size_t>(out.errors.size(), 20);
  for (std::size_t i = 0; i < shown; ++i)
    std::cout << "FAILED " << out.errors[i] << "\n";

  const bool correct = out.errors.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": "
       << std::min<std::uint64_t>(out.errors.size(), out.attempted)
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i)
    json << (i ? ", " : "") << "\"" << out.metrics[i].name
         << "\": {\"value\": " << number(out.metrics[i].value)
         << ", \"unit\": \"" << out.metrics[i].unit << "\"}";
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
