// perfbench_tool: the compiled half of the benchmark.
//
//   perfbench_tool gen WORKLOAD SEED DELTAS DIR
//       writes the seeded inputs of WORKLOAD into DIR (see workload.h)
//   perfbench_tool load ...   open/closed-loop load generator (load.cc)
//   perfbench_tool trace ...  in-process per-layer timings (trace.cc)
//
// run.py drives all three; none of them is a user-facing surface.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "tool.h"
#include "workload.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string cmd = argc > 1 ? argv[1] : "";
  if (cmd == "gen" && argc == 6) {
    const Workload* w = FindWorkload(argv[2]);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload %s\n", argv[2]);
      return 2;
    }
    return Generate(*w, std::strtoull(argv[3], nullptr, 10),
                    std::atoi(argv[4]), argv[5]);
  }
  if (cmd == "load") return LoadMain(argc - 2, argv + 2);
  if (cmd == "trace") return TraceMain(argc - 2, argv + 2);
  std::fprintf(stderr,
               "usage: perfbench_tool gen WORKLOAD SEED DELTAS DIR | "
               "load ... | trace ...\n");
  return 2;
}
