#pragma once
// The resubmit workload: repeat and lightly edited submissions of a few
// gadget families, sent by a closed loop of clients to an in-process,
// store-backed daemon::Server, plus the same stream through the store path
// in-process (serial, hence deterministic) for the work fingerprint and the
// traced store layers.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "jobs.h"

namespace perfbench {

class SpanLog;

/// The request families.  Every edit the stream applies preserves the
/// gadget's function, so each family has one expected verdict.
const std::vector<JobSpec>& resubmit_families();

enum class RequestKind : std::uint8_t {
  kRepeat,  // an earlier request's exact text: store hit, full replay
  kRename,  // every wire renamed: basis miss + save, every cone reused
  kSwap,    // renamed plus one commutative gate's fan-ins swapped: miss,
            // partial replay
};
const char* kind_name(RequestKind kind);

struct Request {
  int family = 0;  // index into resubmit_families()
  RequestKind kind = RequestKind::kRepeat;
  /// Canonical ILANG text of the submitted netlist (repeats share it).
  std::shared_ptr<const std::string> ilang;
};

/// The seeded request stream.  Families take turns, two consecutive
/// requests each; within a family every four consecutive requests hold
/// exactly two repeats, one rename and one swap, in seeded order, so every
/// seed gives the same kind shares.  A repeat resends the family's latest
/// or a random earlier text (the unedited gadget counts as sent); a swap
/// picks its gate by seed.
std::vector<Request> make_stream(std::uint64_t seed, std::size_t n);

/// One request/response round trip, on the client's clock.
struct Exchange {
  std::size_t index = 0;  // position in the stream
  std::int64_t sent_ns = 0;
  std::int64_t accepted_ns = 0;
  std::int64_t running_ns = 0;  // = accepted_ns when no running frame came
  std::int64_t result_ns = 0;
  bool deduped = false;
  bool store_hit = false;
  bool rejected = false;  // refused at admission
  std::string error;      // empty: result with the expected verdict
};

struct LoopResult {
  std::vector<Exchange> exchanges;  // in completion order
  double wall_s = 0.0;              // first send to last response
  bool exhausted = false;  // the stream ran out before the deadline
};

/// `clients` connections, each sending its next request (the next unsent
/// one in stream order) only after the previous one's response, until
/// `seconds` have passed.
LoopResult run_closed_loop(const std::string& socket_path,
                           const std::vector<Request>& stream, double seconds,
                           int clients);

struct StorePass {
  double wall_ms = 0.0;            // sum of per-request walls
  std::vector<std::string> work;   // work record per request
  std::vector<std::string> errors;
  std::uint64_t hits = 0;
  std::uint64_t bytes = 0;  // object bytes in the store afterwards
  std::uint64_t quarantined = 0;
};

/// Runs stream[0, n) serially through the store path against a fresh store
/// in `dir`, with the options the daemon resolves for each request.
/// Without a log this is store::verify_with_store itself; with one, the
/// same public calls one at a time, each inside a span, counters into
/// `tally`.
StorePass run_store_pass(const std::vector<Request>& stream, std::size_t n,
                         const std::string& dir, SpanLog* log, Tally* tally);

}  // namespace perfbench
