// Table I: LIL (the TCHES'20 list-of-lists exact tool) vs this repo's
// verifier under `--engine auto` (which resolves to COEF: flat convolution
// plus the per-coefficient row check) — wall time per benchmark gadget and
// the headline median speedup (paper: 1.88x on an Intel Celeron N3150; its
// own column is MAPI, see bench_table2).
//
// Absolute times differ on other hardware; the shape to reproduce is the
// per-gadget speedup column: wins on the small gadgets (partly from the
// right-sized unfolding table), and orders of magnitude on keccak-2/3,
// where LIL scans ~2^#shares region cells per row.
//
// --json [PATH] additionally writes the rows as machine-readable JSON
// (default PATH: BENCH_table1.json).  The committed baseline at the repo
// root was generated with `bench_table1 --quick --json`; absolute seconds
// in it are machine-specific — compare speedup shape, not time.

#include <fstream>

#include "bench_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/table.h"

using namespace sani;
using namespace sani::bench;

namespace {

struct JsonRow {
  std::string gadget;
  int level = 0;
  RunResult lil;
  RunResult autorun;
  std::string speedup;
};

void write_json(const std::string& path, const std::vector<JsonRow>& rows,
                double median_speedup) {
  std::ofstream os(path);
  os << "{\n  \"table\": \"I\",\n  \"notion\": \"sni\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    os << "    {\"gadget\": \"" << obs::json_escape(r.gadget)
       << "\", \"level\": " << r.level
       << ", \"lil_seconds\": " << r.lil.seconds
       << ", \"lil_timed_out\": " << (r.lil.timed_out ? "true" : "false")
       << ", \"auto_seconds\": " << r.autorun.seconds
       << ", \"auto_timed_out\": " << (r.autorun.timed_out ? "true" : "false")
       << ", \"engine_chosen\": \"" << obs::json_escape(r.autorun.engine_chosen)
       << "\", \"speedup\": \"" << obs::json_escape(r.speedup)
       << "\", \"secure\": "
       << (r.autorun.result.secure ? "true" : "false") << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"median_speedup\": " << median_speedup
     << ",\n  \"paper_median_speedup\": 1.88\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const double timeout = default_timeout(args);
  const std::string trace_path = args.value_or("trace", "");
  if (!trace_path.empty()) obs::Tracer::instance().start();

  std::cout << "== Table I: exact verification time, LIL vs auto (d-SNI) ==\n";
  TextTable table({"sec. lev.", "gadget", "LIL (s)", "auto (s)", "engine",
                   "speed-up", "SNI"});
  std::vector<double> speedups;
  std::vector<JsonRow> json_rows;
  for (const std::string& name : select_gadgets(args)) {
    RunResult lil = run_gadget(name, verify::EngineKind::kLIL, timeout);
    RunResult autorun = run_gadget(name, verify::EngineKind::kAuto, timeout);
    std::string speedup = "-";
    if (!lil.timed_out && !autorun.timed_out) {
      const double s = lil.seconds / autorun.seconds;
      speedups.push_back(s);
      std::ostringstream os;
      os << std::fixed << std::setprecision(2) << s;
      speedup = os.str();
    } else if (lil.timed_out && !autorun.timed_out) {
      std::ostringstream os;
      os << "> " << std::fixed << std::setprecision(0)
         << timeout / autorun.seconds;
      speedup = os.str();
    }
    table.row()
        .add(gadgets::security_level(name))
        .add(name)
        .add(fmt_time(lil))
        .add(fmt_time(autorun))
        .add(autorun.engine_chosen)
        .add(speedup)
        .add(fmt_verdict(autorun));
    json_rows.push_back({name, gadgets::security_level(name), lil, autorun,
                         speedup});
  }
  std::cout << table.to_ascii();
  std::cout << "median speed-up (completed rows): " << std::fixed
            << std::setprecision(2) << median(speedups)
            << "   (paper: 1.88)\n";
  if (args.has("json")) {
    const std::string path = args.value_or("json", "BENCH_table1.json");
    write_json(path, json_rows, median(speedups));
    std::cout << "json rows written to " << path << "\n";
  }
  if (!trace_path.empty()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.stop();
    if (tracer.write_json(trace_path))
      std::cout << "trace written to " << trace_path << "\n";
    else
      std::cerr << "warning: cannot write trace to " << trace_path << "\n";
  }
  return 0;
}
