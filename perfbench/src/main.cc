// perfbench: drives the sose libraries directly for one workload and prints
// one JSON object as its last line of output. run.py builds this binary and
// wraps it; see perfbench/README.md.
//
//   perfbench --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//             [--setup-only] [--sosed=<path>] [--socket=<path>]
//             [--trace-out=<path>]
//
// Unknown or malformed arguments are errors (exit 2); a correctness miss
// exits 1 after the result line.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"
#include "core/simd/cpu_features.h"
#include "core/simd/dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=<mc_dense_threshold|"
               "mc_short_probes|sketch_solve|sosed_stream> --seed=<n> "
               "--seconds=<s> --trace=<0|1> [--setup-only] [--sosed=<path>] "
               "[--socket=<path>] [--trace-out=<path>]\n",
               why.c_str());
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    Usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      config.setup_only = true;
      continue;
    }
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      Usage("unexpected argument '" + arg + "'");
    }
    const std::string flag = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (flag == "--workload") {
      if (value != "mc_dense_threshold" && value != "mc_short_probes" &&
          value != "sketch_solve" && value != "sosed_stream") {
        Usage("unknown workload '" + value + "'");
      }
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = ParseUint(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      const uint64_t s = ParseUint(flag, value);
      if (s < 1 || s > 3600) Usage("--seconds must be in [1, 3600]");
      config.seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--sosed") {
      config.sosed_path = value;
    } else if (flag == "--socket") {
      config.socket_path = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      Usage("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (config.workload == "sosed_stream" &&
      (config.sosed_path.empty() || config.socket_path.empty())) {
    Usage("sosed_stream needs --sosed and --socket");
  }
  return config;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string LlcSize() {
  // The highest cache index of cpu0 is the last-level cache.
  std::string size = "unknown";
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    if (!in) break;
    std::getline(in, size);
  }
  return size;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig config = ParseArgs(argc, argv);
  RunResult result = config.workload == "sketch_solve"   ? RunSolve(config)
                     : config.workload == "sosed_stream" ? RunStream(config)
                                                         : RunMc(config);
  if (config.trace && !config.trace_out.empty() &&
      !WriteSpans(config.trace_out, RetainedSpans())) {
    result.Miss("cannot write " + config.trace_out);
  }

  std::string json = "{\"workload\": " + Quote(config.workload) +
                     ", \"seed\": " + std::to_string(config.seed) +
                     ", \"trace\": " + (config.trace ? "1" : "0") +
                     ", \"first_call\": " + Num(result.first_call) +
                     ", \"passes\": " + std::to_string(result.passes) +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"misses\": [";
  for (size_t i = 0; i < result.misses.size() && i < 50; ++i) {
    json += (i ? ", " : "") + Quote(result.misses[i]);
  }
  json += "], \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    json += (i ? ", " : "") + Quote(m.name) + ": {\"value\": " + Num(m.value) +
            ", \"unit\": " + Quote(m.unit) + "}";
  }
  json += "}, \"info\": {";
  for (size_t i = 0; i < result.info.size(); ++i) {
    json += (i ? ", " : "") + Quote(result.info[i].first) + ": " +
            Quote(result.info[i].second);
  }
  json += "}, \"provenance\": {\"nproc\": " + std::to_string(Nproc()) +
          ", \"cpu_model\": " + Quote(CpuModel()) +
          ", \"llc\": " + Quote(LlcSize()) +
          ", \"isa\": " + Quote(sose::simd::ActiveIsaName()) +
          ", \"isa_source\": " +
          Quote(sose::simd::KernelSelectionSourceName(
              sose::simd::ActiveSelectionSource())) +
          ", \"cpu_features\": " +
          Quote(sose::simd::CpuFeaturesToString(sose::simd::DetectCpuFeatures())) +
          ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) + "}, \"rows\": [";
  for (size_t i = 0; i < result.rows.size(); ++i) {
    json += (i ? ", " : "") + Quote(result.rows[i]);
  }
  json += "], \"walls\": [";
  for (size_t i = 0; i < result.walls.size(); ++i) {
    json += (i ? ", " : "") + Num(result.walls[i]);
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.misses.empty() ? 0 : 1;
}
