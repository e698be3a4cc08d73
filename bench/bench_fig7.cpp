// Fig. 7: absolute overall verification times of the four paper
// implementations (LIL, FUJITA, MAP, MAPI) per benchmark gadget — the
// companion plot of Table II — plus COEF, the production engine
// `--engine auto` resolves to.  Shape to reproduce: FUJITA pays a large
// constant factor on the small gadgets but scales best on keccak-*; MAPI
// tracks the per-gadget winner within a small factor.
//
// The last column is COEF's time over the best paper engine's: the per-row
// ledger of DESIGN.md Sec. 12 is `bench_fig7 --registry --reps 5`.  A
// timed-out paper engine counts as its budget (a lower bound).
//
// --reps N   at least N in-process runs per (gadget, engine); the median
//            is reported (default: repeat sub-0.2 s runs up to 5 times)

#include <algorithm>

#include "bench_common.h"
#include "util/table.h"

using namespace sani;
using namespace sani::bench;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const double timeout = default_timeout(args);
  const int reps = args.value_int("reps", 1);

  std::cout << "== Fig. 7: overall time per engine (seconds, d-SNI) ==\n";
  TextTable table(
      {"gadget", "LIL", "FUJITA", "MAP", "MAPI", "COEF", "COEF/best"});
  for (const std::string& name : select_gadgets(args)) {
    auto run = [&](verify::EngineKind engine) {
      return run_gadget(name, engine, timeout, verify::Notion::kSNI, reps);
    };
    RunResult lil = run(verify::EngineKind::kLIL);
    RunResult fuj = run(verify::EngineKind::kFUJITA);
    RunResult map = run(verify::EngineKind::kMAP);
    RunResult mapi = run(verify::EngineKind::kMAPI);
    RunResult coef = run(verify::EngineKind::kCOEF);
    double best = timeout;
    for (const RunResult* r : {&lil, &fuj, &map, &mapi})
      if (!r->timed_out) best = std::min(best, r->seconds);
    std::ostringstream ratio;
    if (!coef.timed_out)
      ratio << std::fixed << std::setprecision(2) << coef.seconds / best;
    else
      ratio << "-";
    table.row()
        .add(name)
        .add(fmt_time(lil))
        .add(fmt_time(fuj))
        .add(fmt_time(map))
        .add(fmt_time(mapi))
        .add(fmt_time(coef))
        .add(ratio.str());
  }
  std::cout << table.to_ascii();
  return 0;
}
