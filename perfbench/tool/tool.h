// Shared helpers of perfbench_tool's subcommands.
#ifndef PERFBENCH_TOOL_H_
#define PERFBENCH_TOOL_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

int LoadMain(int argc, char** argv);
int TraceMain(int argc, char** argv);

inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

/// User + system CPU of this process so far, in ms.
inline double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
         (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty set.
inline double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(p / 100.0 * v->size() + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

/// `--key value` pairs after the subcommand.
inline std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> out;
  for (int i = 0; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) out[key.substr(2)] = argv[i + 1];
  }
  return out;
}

/// JSON string literal of `s` (the values written here are ASCII).
inline std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_H_
