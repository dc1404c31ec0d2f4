// perfbench: the dbsp end-to-end benchmark driver. perfbench/run.py builds
// it and runs one workload per process:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --daemon PATH --work DIR [--spans PATH]
//
// The last stdout line is one JSON object (correct, attempted, failed,
// metrics, detail); run.py checks it against BENCHMARK.json. The exit code
// is non-zero when an output check failed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"

namespace {

using pb::Args;

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--daemon") a.daemon = value;
    else if (key == "--work") a.work_dir = value;
    else if (key == "--spans") a.spans = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (a.workload.empty() || a.daemon.empty() || a.work_dir.empty() || a.seconds <= 0) {
    throw std::invalid_argument("--workload, --daemon, --work and --seconds are required");
  }
  return a;
}

using Runner = void (*)(const pb::Table&, pb::Ctx&);

struct Layer {
  Runner run;
  std::size_t probe_subs;  ///< table size when probing another workload
};

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure a build with assertions on\n";
  return 2;
#endif
  try {
    const Args args = parse(argc, argv);
    pb::Report report;
    pb::Tracer tracer(args.trace);
    const pb::Table table = pb::make_table(args.workload, args.seed);

    const Layer inproc{pb::run_inproc, 5000};
    const Layer wire{pb::run_wire, 2000};
    const Layer churn{pb::run_churn, 5000};
    const Layer* own = args.workload == "inproc_prune" ? &inproc : &churn;

    pb::Ctx ctx{args, report, tracer, !args.trace, args.trace, false, args.seconds};
    own->run(table, ctx);
    if (args.trace) {
      // The layers this workload does not drive are probed on a smaller
      // replica of its own inputs, so every traced run reports every layer.
      for (const Layer* other : {&inproc, &wire, &churn}) {
        if (other == own) continue;
        const pb::Table part = table.head(other->probe_subs);
        pb::Ctx probe{args, report, tracer, false, true, true, 2.0};
        other->run(part, probe);
      }
      tracer.write_json(args.spans);
    }
    std::printf("%s\n", report.json().c_str());
    std::fflush(stdout);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
