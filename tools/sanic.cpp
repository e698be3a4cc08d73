// sanic — thin client for the sanid verification daemon.
//
// Mirrors `sani verify` flag for flag, but ships the job over sanid's
// unix-domain socket instead of running it in-process; the daemon renders
// the report server-side with the same summarize/json_report code, so
// sanic's stdout is byte-identical to sani's for the same request (pair
// both with --deterministic-report to diff a warm daemon run against a
// cold CLI run).
//
// Usage:
//   sanic --socket PATH (--gadget NAME | --file PATH) [verify options]
//   sanic --socket PATH --stats | --ping | --metrics | --shutdown
//
// Exit code: the sani convention for verify (0 secure, 1 insecure, 2
// timeout); 3 on daemon-reported errors, 64 on usage/connection errors.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/metrics.h"
#include "util/cli.h"
#include "util/json.h"

using namespace sani;

namespace {

int usage(const std::string& msg = "") {
  if (!msg.empty()) std::cerr << "error: " << msg << "\n";
  std::cerr
      << "usage: sanic --socket PATH (--gadget NAME | --file PATH) "
         "[options]\n"
         "       sanic --socket PATH --stats | --ping | --metrics | "
         "--shutdown\n"
         "  verify options (mirroring sani): --notion NAME --order D\n"
         "  --engine NAME --robust --joint --no-union --time-limit S\n"
         "  --jobs N --memo N --cache-bits N --var-order NAME --sift\n"
         "  --largest-first --format text|json --deterministic-report\n"
         "  --priority N             admission priority (higher runs "
         "first)\n";
  return 64;
}

int connect_to(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one newline-terminated frame.  Returns false on EOF.
bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Builds the verify request frame from CLI flags.  Only explicitly passed
/// options are serialized — the daemon applies the same defaults sani
/// does, so absence means the same thing on both sides.
std::string build_verify_request(const CliArgs& args) {
  using obs::json_escape;
  std::ostringstream os;
  os << "{\"op\":\"verify\"";
  if (auto g = args.value("gadget"))
    os << ",\"gadget\":\"" << json_escape(*g) << "\"";
  else if (auto f = args.value("file")) {
    std::ifstream in(*f);
    if (!in) throw std::invalid_argument("cannot read " + *f);
    std::ostringstream text;
    text << in.rdbuf();
    os << ",\"ilang\":\"" << json_escape(text.str()) << "\"";
  } else {
    throw std::invalid_argument("need --gadget or --file");
  }
  if (auto v = args.value("notion"))
    os << ",\"notion\":\"" << json_escape(*v) << "\"";
  if (args.value("order")) os << ",\"order\":" << args.value_int("order", 1);
  if (auto v = args.value("engine"))
    os << ",\"engine\":\"" << json_escape(*v) << "\"";
  if (args.has("robust")) os << ",\"robust\":true";
  if (args.has("joint")) os << ",\"joint\":true";
  if (args.has("no-union")) os << ",\"union\":false";
  if (args.value("time-limit"))
    os << ",\"time_limit\":" << args.value_double("time-limit", 0.0);
  if (args.value("jobs")) os << ",\"jobs\":" << args.value_int("jobs", 1);
  if (args.value("memo")) os << ",\"memo\":" << args.value_int("memo", 64);
  if (args.value("cache-bits"))
    os << ",\"cache_bits\":" << args.value_int("cache-bits", 18);
  if (auto v = args.value("var-order"))
    os << ",\"var_order\":\"" << json_escape(*v) << "\"";
  if (args.has("sift")) os << ",\"sift\":true";
  if (args.has("largest-first")) os << ",\"largest_first\":true";
  if (args.has("deterministic-report")) os << ",\"deterministic\":true";
  if (auto v = args.value("format"))
    os << ",\"format\":\"" << json_escape(*v) << "\"";
  if (args.value("priority"))
    os << ",\"priority\":" << args.value_int("priority", 0);
  os << "}\n";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string socket_path = args.value_or("socket", "");
  if (socket_path.empty()) return usage("--socket is required");

  std::string request;
  const bool one_frame_op = args.has("stats") || args.has("ping") ||
                            args.has("metrics") || args.has("shutdown");
  try {
    if (args.has("stats")) request = "{\"op\":\"stats\"}\n";
    else if (args.has("ping")) request = "{\"op\":\"ping\"}\n";
    else if (args.has("metrics")) request = "{\"op\":\"metrics\"}\n";
    else if (args.has("shutdown")) request = "{\"op\":\"shutdown\"}\n";
    else request = build_verify_request(args);
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  const int fd = connect_to(socket_path);
  if (fd < 0) {
    std::cerr << "sanic: cannot connect to " << socket_path << "\n";
    return 64;
  }
  if (!send_all(fd, request)) {
    std::cerr << "sanic: cannot send request\n";
    ::close(fd);
    return 64;
  }

  const bool verbose = args.has("verbose");
  std::string buffer, line;
  int exit_code = 3;
  while (read_line(fd, buffer, line)) {
    json::ValuePtr frame;
    try {
      frame = json::parse(line);
    } catch (const std::exception& e) {
      std::cerr << "sanic: malformed frame: " << e.what() << "\n";
      break;
    }
    const std::string kind = frame->get_string("frame");
    if (kind == "accepted") {
      if (verbose)
        std::cerr << "sanic: accepted"
                  << (frame->get_bool("deduped") ? " (deduped)" : "")
                  << " key " << frame->get_string("key") << "\n";
      continue;
    }
    if (kind == "progress") {
      if (verbose)
        std::cerr << "sanic: " << frame->get_string("stage") << "\n";
      continue;
    }
    if (kind == "result") {
      std::cout << frame->get_string("report");
      if (verbose)
        std::cerr << "sanic: store "
                  << (frame->get_bool("store_hit")
                          ? "hit"
                          : (frame->get_bool("store_saved") ? "miss (saved)"
                                                            : "miss"))
                  << "\n";
      exit_code = static_cast<int>(frame->get_number("exit", 3));
      break;
    }
    if (kind == "metrics") {
      // Relay the Prometheus exposition text verbatim — a scrape bridge
      // pipes `sanic --metrics` straight into an HTTP response body.
      std::cout << frame->get_string("body");
      exit_code = 0;
      break;
    }
    if (kind == "error") {
      std::cerr << "sanic: " << frame->get_string("message") << "\n";
      exit_code = 3;
      break;
    }
    // stats / pong / shutdown acks: print the frame itself.
    std::cout << line << "\n";
    if (one_frame_op) {
      exit_code = 0;
      break;
    }
  }
  ::close(fd);
  return exit_code;
}
