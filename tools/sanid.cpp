// sanid — long-lived verification daemon.
//
// Hosts daemon::Server: a unix-domain NDJSON service that runs sani
// verification jobs with an in-process artifact store, so repeated
// submissions of the same netlist warm-start their prepared basis instead
// of re-running parse/unfold/basis_build/freeze.  See
// src/daemon/protocol.h for the wire protocol and `sanic` for the client.
//
// Usage:
//   sanid --socket PATH [--store DIR] [--store-max-bytes N]
//         [--queue-capacity N] [--executors N]
//         [--journal FILE] [--journal-max-bytes N]
//
// Shutdown: SIGTERM/SIGINT, or a client's {"op":"shutdown"} — both drain
// cleanly (queued jobs answered with an error frame, running jobs
// cancelled cooperatively, socket unlinked).  Exit code 0 on a clean stop,
// 64 on usage errors, 1 on startup failure.

#include <csignal>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "daemon/server.h"
#include "obs/journal.h"
#include "util/cli.h"

using namespace sani;

namespace {

int usage(const std::string& msg = "") {
  if (!msg.empty()) std::cerr << "error: " << msg << "\n";
  std::cerr
      << "usage: sanid --socket PATH [options]\n"
         "  --socket PATH            unix-domain socket to listen on\n"
         "  --store DIR              artifact store directory (warm-starts\n"
         "                           repeated submissions; omit to disable)\n"
         "  --store-max-bytes N      LRU-evict the store to N bytes (0 = "
         "unbounded)\n"
         "  --queue-capacity N       admission queue bound (default 64)\n"
         "  --executors N            concurrent jobs (default 2)\n"
         "  --journal FILE           append NDJSON event records (accepted,\n"
         "                           completed, job_failed, lifecycle) here\n"
         "  --journal-max-bytes N    rotate the journal past N bytes "
         "(default 8 MiB)\n";
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  daemon::Server::Options options;
  options.socket_path = args.value_or("socket", "");
  if (options.socket_path.empty()) return usage("--socket is required");
  options.store_dir = args.value_or("store", "");
  // The journal always echoes to stderr so operators keep the one-line
  // lifecycle messages; --journal additionally persists structured NDJSON.
  obs::Journal::Options jopts;
  jopts.path = args.value_or("journal", "");
  try {
    options.store_max_bytes =
        args.value_u64("store-max-bytes", options.store_max_bytes);
    options.queue_capacity = static_cast<std::size_t>(
        args.value_u64("queue-capacity", options.queue_capacity));
    options.executors = args.value_int("executors", 2);
    jopts.max_bytes = args.value_u64("journal-max-bytes", jopts.max_bytes);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  }
  if (options.executors < 1) return usage("--executors must be >= 1");
  jopts.echo_stderr = true;
  obs::Journal::instance().configure(jopts);

  // Route SIGTERM/SIGINT through a dedicated sigwait thread: every server
  // thread inherits the blocked mask, so signals never interrupt a job
  // mid-flight — they turn into the same graceful request_stop() a client
  // shutdown op triggers.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  daemon::Server server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "sanid: " << e.what() << "\n";
    return 1;
  }
  obs::Journal::instance().info(
      "sanid", "listening",
      {{"socket", server.socket_path()},
       {"store", options.store_dir.empty() ? std::string("(none)")
                                           : options.store_dir},
       {"executors", options.executors}});

  std::thread([&server, sigs] {
    int sig = 0;
    if (sigwait(&sigs, &sig) == 0) server.request_stop();
  }).detach();  // never finishes on an op-initiated shutdown; process exit
                // reaps it

  server.wait_for_stop();
  server.stop();
  obs::Journal::instance().info("sanid", "stopped");
  obs::Journal::instance().close();
  return 0;
}
