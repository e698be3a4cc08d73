#include "resubmit.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "circuit/edit.h"
#include "circuit/ilang.h"
#include "gadgets/registry.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "spans.h"
#include "store/cached_verify.h"
#include "store/store.h"
#include "util/json.h"
#include "verify/basis.h"
#include "verify/engine.h"
#include "verify/incremental.h"
#include "verify/qinfo.h"

namespace perfbench {

namespace circuit = sani::circuit;
namespace verify = sani::verify;
namespace store = sani::store;
using sani::obs::Clock;

const std::vector<JobSpec>& resubmit_families() {
  static const std::vector<JobSpec> families = {
      {"keccak-2", 2, verify::Notion::kSNI},
      {"dom-3", 3, verify::Notion::kSNI},
      {"gf4mul-2", 2, verify::Notion::kSNI},
      {"hpc1-3", 3, verify::Notion::kPINI}};
  return families;
}

const char* kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kRepeat: return "repeat";
    case RequestKind::kRename: return "rename";
    case RequestKind::kSwap: return "swap";
  }
  return "?";
}

namespace {

// The gate kinds circuit::with_swapped_fanins accepts.
bool commutative(circuit::GateKind kind) {
  using circuit::GateKind;
  return kind == GateKind::kAnd || kind == GateKind::kOr ||
         kind == GateKind::kXor || kind == GateKind::kXnor ||
         kind == GateKind::kNand || kind == GateKind::kNor;
}

std::string request_line(const JobSpec& family, const std::string& ilang) {
  return std::string("{\"op\":\"verify\",\"engine\":\"auto\",\"notion\":\"") +
         (family.notion == verify::Notion::kPINI ? "pini" : "sni") +
         "\",\"order\":" + std::to_string(family.order) + ",\"ilang\":\"" +
         sani::obs::json_escape(ilang) + "\"}";
}

/// The options the daemon resolves for a family's request: the family's
/// production options with incremental re-verification on (a store-backed
/// daemon's default).
verify::VerifyOptions daemon_options(const JobSpec& family) {
  verify::VerifyOptions opt = family.options();
  opt.incremental = true;
  return opt;
}

/// Blocking NDJSON client over a unix-domain socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
      throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    // A lost frame fails the request instead of hanging the benchmark.
    timeval tv{120, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path);
    }
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool send_line(const std::string& line) {
    std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next frame; null on EOF or timeout.
  sani::json::ValuePtr next_frame() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return sani::json::parse(line);
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return nullptr;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Sends one request and reads its frames up to the result or error.
Exchange exchange(Client& client, const std::vector<Request>& stream,
                  std::size_t index) {
  const Request& req = stream[index];
  const JobSpec& family = resubmit_families()[req.family];
  const std::string line = request_line(family, *req.ilang);
  Exchange ex;
  ex.index = index;
  ex.sent_ns = Clock::now_ns();
  if (!client.send_line(line)) {
    ex.error = "send failed";
    return ex;
  }
  while (sani::json::ValuePtr frame = client.next_frame()) {
    const std::int64_t now = Clock::now_ns();
    const std::string kind = frame->get_string("frame");
    if (kind == "accepted") {
      ex.accepted_ns = now;
      ex.deduped = frame->get_bool("deduped");
    } else if (kind == "progress") {
      ex.running_ns = now;
    } else if (kind == "error") {
      ex.result_ns = now;
      const std::string msg = frame->get_string("message");
      ex.rejected = msg == "admission queue full" ||
                    msg == "daemon is shutting down";
      ex.error = "error frame: " + msg;
      return ex;
    } else if (kind == "result") {
      ex.result_ns = now;
      if (ex.accepted_ns == 0) ex.accepted_ns = now;
      if (ex.running_ns == 0 || ex.running_ns < ex.accepted_ns)
        ex.running_ns = ex.accepted_ns;
      ex.store_hit = frame->get_bool("store_hit");
      const int exit_code = static_cast<int>(frame->get_number("exit", -1));
      const std::string report = frame->get_string("report");
      const std::string want = " is " + std::to_string(family.order) + "-" +
                               verify::notion_name(family.notion) + " (";
      if (exit_code != (family.secure ? 0 : 1) ||
          report.find(want) == std::string::npos)
        ex.error = family.label() + ": exit " + std::to_string(exit_code) +
                   ", report '" + report.substr(0, 120) + "'";
      return ex;
    }
  }
  ex.result_ns = Clock::now_ns();
  ex.error = "connection lost or timed out";
  return ex;
}

}  // namespace

std::vector<Request> make_stream(std::uint64_t seed, std::size_t n) {
  const std::vector<JobSpec>& families = resubmit_families();
  struct FamilyState {
    circuit::Gadget base;
    std::vector<circuit::WireId> swappable;
    // Texts a repeat may resend.
    std::vector<std::shared_ptr<const std::string>> sent;
    std::array<RequestKind, 4> block{};
    std::size_t next = 4;  // position in `block`; 4 = draw a new block
  };
  std::vector<FamilyState> state;
  for (const JobSpec& f : families) {
    FamilyState st{sani::gadgets::by_name(f.gadget), {}, {}, {}, 4};
    const circuit::Netlist& nl = st.base.netlist;
    for (circuit::WireId w = 0; w < nl.num_wires(); ++w)
      if (commutative(nl.node(w).kind) &&
          nl.node(w).fanin[0] != nl.node(w).fanin[1])
        st.swappable.push_back(w);
    if (st.swappable.empty())
      throw std::logic_error(f.gadget + " has no swappable gate");
    st.sent.push_back(std::make_shared<const std::string>(
        circuit::write_ilang_string(st.base)));
    state.push_back(std::move(st));
  }

  std::mt19937_64 rng(seed);
  std::vector<Request> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Request req;
    req.family = static_cast<int>((i / 2) % families.size());
    FamilyState& st = state[static_cast<std::size_t>(req.family)];
    if (st.next == st.block.size()) {
      st.block = {RequestKind::kRepeat, RequestKind::kRepeat,
                  RequestKind::kRename, RequestKind::kSwap};
      std::shuffle(st.block.begin(), st.block.end(), rng);
      st.next = 0;
    }
    req.kind = st.block[st.next++];
    if (req.kind == RequestKind::kRepeat) {
      const std::size_t pick = rng() % 2 == 0
                                   ? st.sent.size() - 1
                                   : static_cast<std::size_t>(
                                         rng() % st.sent.size());
      req.ilang = st.sent[pick];
    } else {
      circuit::Gadget g = circuit::with_renamed_wires(
          st.base, "r" + std::to_string(i) + "_");
      if (req.kind == RequestKind::kSwap)
        g = circuit::with_swapped_fanins(
            g, st.swappable[rng() % st.swappable.size()]);
      req.ilang =
          std::make_shared<const std::string>(circuit::write_ilang_string(g));
      st.sent.push_back(req.ilang);
    }
    stream.push_back(std::move(req));
  }
  return stream;
}

LoopResult run_closed_loop(const std::string& socket_path,
                           const std::vector<Request>& stream, double seconds,
                           int clients) {
  std::vector<std::unique_ptr<Client>> conns;
  for (int c = 0; c < clients; ++c)
    conns.push_back(std::make_unique<Client>(socket_path));

  LoopResult out;
  std::mutex mu;  // guards out.exchanges and out.exhausted
  std::atomic<std::size_t> cursor{0};
  const std::int64_t start = Clock::now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  // jthreads join on unwinding too, before the state they share goes away.
  std::vector<std::jthread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      Client& client = *conns[static_cast<std::size_t>(c)];
      while (Clock::now_ns() < deadline) {
        const std::size_t i = cursor.fetch_add(1);
        if (i >= stream.size()) {
          std::lock_guard<std::mutex> lock(mu);
          out.exhausted = true;
          return;
        }
        Exchange ex;
        try {
          ex = exchange(client, stream, i);
        } catch (const std::exception& e) {  // e.g. a malformed frame
          ex.index = i;
          ex.error = std::string("connection lost: ") + e.what();
        }
        const bool lost = ex.error.rfind("connection lost", 0) == 0 ||
                          ex.error == "send failed";
        {
          std::lock_guard<std::mutex> lock(mu);
          out.exchanges.push_back(std::move(ex));
        }
        if (lost) return;
      }
    });
  for (std::jthread& t : threads) t.join();
  std::int64_t last = start;
  for (const Exchange& ex : out.exchanges) last = std::max(last, ex.result_ns);
  out.wall_s = static_cast<double>(last - start) * 1e-9;
  return out;
}

StorePass run_store_pass(const std::vector<Request>& stream, std::size_t n,
                         const std::string& dir, SpanLog* log, Tally* tally) {
  std::filesystem::remove_all(dir);
  store::ArtifactStore::Options sopt;
  sopt.dir = dir;
  store::ArtifactStore artifacts(sopt);
  StorePass pass;
  for (std::size_t i = 0; i < n && i < stream.size(); ++i) {
    const Request& req = stream[i];
    const JobSpec& family = resubmit_families()[req.family];
    const verify::VerifyOptions opt = daemon_options(family);
    const std::int64_t t0 = Clock::now_ns();
    verify::VerifyResult r;
    std::string report;
    bool hit = false;
    if (!log) {
      const circuit::Gadget g = circuit::parse_ilang_string(*req.ilang);
      sani::obs::Stopwatch watch;
      store::StoreOutcome outcome;
      r = store::verify_with_store(g, opt, artifacts, &outcome);
      hit = outcome.hit;
      report = render_report(g.netlist.name(), opt, g, r, watch.seconds());
    } else {
      // store::verify_with_store and its incremental scan, one public call
      // at a time.
      ScopedSpan job(log, "job", i);
      const circuit::Gadget g = [&] {
        ScopedSpan s(log, "circuit.parse", i);
        return circuit::parse_ilang_string(*req.ilang);
      }();
      sani::obs::Stopwatch watch;
      std::string key, family_key;
      {
        ScopedSpan s(log, "store.key", i);
        key = store::artifact_key(g, opt);
        family_key = store::summary_family_key(g, opt);
      }
      std::shared_ptr<const verify::Basis> basis;
      {
        ScopedSpan s(log, "store.load", i);
        basis = artifacts.load_basis(key);
      }
      hit = basis != nullptr;
      if (!basis) {
        basis = build_basis_traced(g, opt, *log, i, *tally);
        ScopedSpan s(log, "store.save", i);
        artifacts.save_basis(key, *basis, store::needs_for_engine(opt.engine));
      }
      std::shared_ptr<const verify::ConeSummary> prior;
      {
        ScopedSpan s(log, "store.load", i);
        if (std::optional<std::string> head = artifacts.family_head(family_key))
          prior = artifacts.load_summary(*head);
      }
      const int nobs = static_cast<int>(basis->size());
      std::optional<verify::IncrementalPlan> plan;
      verify::SummaryCollector collector(nobs, opt.order);
      verify::QInfoStore deps(nobs);
      verify::IncrementalContext ctx;
      {
        ScopedSpan s(log, "verify.incremental", i);
        if (prior) plan = verify::IncrementalPlan::build(*basis, prior, opt);
      }
      if (plan) ctx.plan = &*plan;
      if (basis->cones.available) {
        ctx.collector = &collector;
        ctx.deps_out = &deps;
      }
      {
        ScopedSpan s(log, "verify.run", i);
        r = verify::verify_basis(basis, opt, nullptr, &ctx);
        s.close();
        r.stats.incremental.active = true;
        r.stats.incremental.cones_total = static_cast<std::uint64_t>(nobs);
        if (plan) r.stats.incremental.cones_reused = plan->cones_reused();
        record_engine(r, *log, s.id(), *tally);
      }
      if (basis->cones.available) {
        std::optional<verify::ConeSummary> summary;
        {
          ScopedSpan s(log, "verify.incremental", i);
          summary =
              verify::make_summary(*basis, opt, std::move(collector), deps);
        }
        ScopedSpan s(log, "store.save", i);
        const std::string skey = store::summary_object_key(family_key, key);
        if (artifacts.save_summary(skey, *summary))
          artifacts.set_family_head(family_key, skey);
      }
      ScopedSpan s(log, "verify.report", i);
      report = render_report(g.netlist.name(), opt, g, r, watch.seconds());
    }
    pass.wall_ms += static_cast<double>(Clock::now_ns() - t0) * 1e-6;
    pass.hits += hit ? 1 : 0;
    if (std::string err = check_verdict(family, r, report); !err.empty())
      pass.errors.push_back(err);
    pass.work.push_back(work_record(r) + " store_hit=" + (hit ? "1" : "0"));
  }
  const store::ArtifactStore::Stats st = artifacts.stats();
  pass.bytes = st.total_bytes;
  pass.quarantined = st.quarantined;
  return pass;
}

}  // namespace perfbench
