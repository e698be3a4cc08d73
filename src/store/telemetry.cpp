#include "store/telemetry.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "store/manifest.h"
#include "util/json.h"

namespace sani::store {

namespace fs = std::filesystem;

namespace {

std::string sanitized_host() {
  char host[256] = "_";
  ::gethostname(host, sizeof(host) - 1);
  std::string out = host;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return out.empty() ? "_" : out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("telemetry: cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool atomic_write(const std::string& final_path, const std::string& bytes) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string tmp = final_path + ".tmp." + std::to_string(::getpid()) +
                          "." + std::to_string(seq.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
    return false;
  }
  return true;
}

/// Generic re-emitter for parsed JSON values — the stitcher shuffles whole
/// event objects between files without caring what is inside them.
void write_value(std::ostringstream& os, const json::Value& v) {
  switch (v.kind) {
    case json::Value::Kind::kNull:
      os << "null";
      break;
    case json::Value::Kind::kBool:
      os << (v.b ? "true" : "false");
      break;
    case json::Value::Kind::kNumber: {
      const double d = v.num;
      const long long ll = static_cast<long long>(d);
      if (static_cast<double>(ll) == d) {
        os << ll;
      } else {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        os << buf;
      }
      break;
    }
    case json::Value::Kind::kString:
      os << "\"" << obs::json_escape(v.str) << "\"";
      break;
    case json::Value::Kind::kArray: {
      os << "[";
      bool first = true;
      for (const auto& e : v.arr) {
        if (!first) os << ",";
        first = false;
        write_value(os, *e);
      }
      os << "]";
      break;
    }
    case json::Value::Kind::kObject: {
      os << "{";
      bool first = true;
      for (const auto& [k, e] : v.obj) {
        if (!first) os << ",";
        first = false;
        os << "\"" << obs::json_escape(k) << "\":";
        write_value(os, *e);
      }
      os << "}";
      break;
    }
  }
}

}  // namespace

std::string telemetry_dir(const std::string& scan_dir) {
  return scan_dir + "/telemetry";
}

std::string worker_snapshot_path(const std::string& scan_dir) {
  return telemetry_dir(scan_dir) + "/" + sanitized_host() + "-" +
         std::to_string(::getpid()) + ".json";
}

std::string worker_trace_path(const std::string& scan_dir) {
  return telemetry_dir(scan_dir) + "/trace-" + sanitized_host() + "-" +
         std::to_string(::getpid()) + ".json";
}

bool write_worker_snapshot(const std::string& scan_dir,
                           const WorkerSnapshot& snap) {
  std::error_code ec;
  fs::create_directories(telemetry_dir(scan_dir), ec);
  if (ec) return false;
  std::ostringstream os;
  os << "{\"pid\":" << snap.pid << ",\"host\":\""
     << obs::json_escape(snap.host) << "\",\"trace_id\":\""
     << obs::json_escape(snap.trace_id) << "\",\"engine\":\""
     << obs::json_escape(snap.engine) << "\",\"uptime_seconds\":"
     << snap.uptime_seconds << ",\"shards_claimed\":" << snap.shards_claimed
     << ",\"shards_done\":" << snap.shards_done
     << ",\"combinations\":" << snap.combinations << ",\"rate\":" << snap.rate
     << ",\"rss_bytes\":" << snap.rss_bytes
     << ",\"live_nodes\":" << snap.live_nodes << "}\n";
  return atomic_write(worker_snapshot_path(scan_dir), os.str());
}

std::vector<WorkerSnapshot> read_worker_snapshots(
    const std::string& scan_dir) {
  std::vector<WorkerSnapshot> out;
  const std::string dir = telemetry_dir(scan_dir);
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return out;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 6 || name.substr(name.size() - 5) != ".json") continue;
    if (name.rfind("trace-", 0) == 0) continue;        // worker traces
    if (name.find(".tmp.") != std::string::npos) continue;
    try {
      const json::ValuePtr v = json::parse(read_file(entry.path().string()));
      if (!v->is_object()) continue;
      WorkerSnapshot snap;
      snap.pid = static_cast<std::uint64_t>(v->get_number("pid"));
      snap.host = v->get_string("host");
      snap.trace_id = v->get_string("trace_id");
      snap.engine = v->get_string("engine");
      snap.uptime_seconds = v->get_number("uptime_seconds");
      snap.shards_claimed =
          static_cast<std::uint64_t>(v->get_number("shards_claimed"));
      snap.shards_done =
          static_cast<std::uint64_t>(v->get_number("shards_done"));
      snap.combinations =
          static_cast<std::uint64_t>(v->get_number("combinations"));
      snap.rate = v->get_number("rate");
      snap.rss_bytes = static_cast<std::uint64_t>(v->get_number("rss_bytes"));
      snap.live_nodes = v->get_number("live_nodes");
      snap.age_seconds =
          file_age_seconds(entry.path().string()).value_or(0.0);
      out.push_back(std::move(snap));
    } catch (const std::exception&) {
      // A snapshot mid-rename or from a newer format: skip, don't fail the
      // status view.
    }
  }
  return out;
}

FleetStatus aggregate_fleet(const std::vector<WorkerSnapshot>& snapshots,
                            std::uint64_t combinations_remaining,
                            double stale_after_seconds) {
  FleetStatus fleet;
  for (const WorkerSnapshot& snap : snapshots) {
    if (snap.age_seconds > stale_after_seconds) {
      ++fleet.stale_workers;
      continue;
    }
    ++fleet.live_workers;
    fleet.shards_claimed += snap.shards_claimed;
    fleet.shards_done += snap.shards_done;
    fleet.rate += snap.rate;
    fleet.rss_bytes += snap.rss_bytes;
    fleet.live_nodes += snap.live_nodes;
  }
  if (fleet.rate > 0.0)
    fleet.eta_seconds =
        static_cast<double>(combinations_remaining) / fleet.rate;
  return fleet;
}

std::string stitch_traces(const std::string& scan_dir,
                          std::string* trace_id_out) {
  const std::string dir = telemetry_dir(scan_dir);
  std::vector<std::string> files;
  std::error_code ec;
  if (fs::is_directory(dir, ec))
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("trace-", 0) == 0 && name.size() > 5 &&
          name.substr(name.size() - 5) == ".json" &&
          name.find(".tmp.") == std::string::npos)
        files.push_back(entry.path().string());
    }
  if (files.empty())
    throw std::runtime_error("trace-stitch: no telemetry/trace-*.json under " +
                             scan_dir);
  std::sort(files.begin(), files.end());

  std::string trace_id;
  std::vector<json::ValuePtr> events;     // concatenated, file order
  std::set<long long> pids;               // every pid seen in any event
  std::set<long long> named_pids;         // pids with a process_name row
  for (const std::string& path : files) {
    const json::ValuePtr v = json::parse(read_file(path));
    if (!v->is_object() || !v->has("traceEvents"))
      throw std::runtime_error("trace-stitch: " + path +
                               " is not a Chrome trace");
    std::string id;
    if (v->has("otherData")) id = v->at("otherData").get_string("trace_id");
    if (!id.empty()) {
      if (!trace_id.empty() && id != trace_id)
        throw std::runtime_error("trace-stitch: " + path + " belongs to job " +
                                 id + ", expected " + trace_id);
      trace_id = id;
    }
    for (const json::ValuePtr& e : v->at("traceEvents").arr) {
      if (!e->is_object()) continue;
      const long long pid = static_cast<long long>(e->get_number("pid", -1));
      if (pid >= 0) pids.insert(pid);
      if (e->get_string("name") == "process_name" &&
          e->get_string("ph") == "M" && pid >= 0)
        named_pids.insert(pid);
      events.push_back(e);
    }
  }

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (long long pid : pids) {
    if (named_pids.count(pid)) continue;
    sep();
    os << "{\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"worker "
       << pid << "\"}}";
  }
  for (const json::ValuePtr& e : events) {
    sep();
    write_value(os, *e);
  }
  os << "\n]";
  if (!trace_id.empty())
    os << ",\"otherData\":{\"trace_id\":\"" << obs::json_escape(trace_id)
       << "\"}";
  os << "}";
  if (trace_id_out) *trace_id_out = trace_id;
  return os.str();
}

}  // namespace sani::store
