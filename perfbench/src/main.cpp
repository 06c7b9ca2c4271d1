// The perfbench binary. Runs one workload, untraced (end-to-end records)
// or traced (spans and counts), and writes a raw JSON report for
// perfbench/metrics.py. run.py is the entry point; see perfbench/README.md.
//
//   perfbench --workload <relay_block|sync_graphene|sync_rateless>
//             --seed <n> --seconds <s> --trace <0|1> --out <report.json>
//             [--fail-denom <n>]   (relay_block's IBLT failure target; tests only)
//
// Exit status: 0 on success, 3 when the run found a wrong result, a daemon
// error, a connection error or a leaked connection (the report lists them),
// 2 on bad arguments, 1 on any other failure.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--out") {
      opts.out = value;
    } else if (flag == "--fail-denom") {
      opts.fail_denom = static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opts.workload.empty() && !opts.out.empty() && opts.seconds > 0.0 &&
         opts.fail_denom > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_process_start();
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out <path>\n");
    return 2;
  }
  try {
    perfbench::Errors errors;
    graphene::obs::json::Writer w;
    w.begin_object();
    w.key("workload");
    w.string(opts.workload);
    w.key("seed");
    w.number(opts.seed);
    w.key("seconds");
    w.number(opts.seconds);
    w.key("traced");
    w.boolean(opts.trace);
    if (opts.workload == "relay_block") {
      perfbench::run_relay_block(opts, w, errors);
    } else if (opts.workload == "sync_graphene") {
      perfbench::run_sync(opts, /*rateless=*/false, w, errors);
    } else if (opts.workload == "sync_rateless") {
      perfbench::run_sync(opts, /*rateless=*/true, w, errors);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", opts.workload.c_str());
      return 2;
    }
    w.key("peak_rss_mb");
    w.number(perfbench::peak_rss_mb());
    w.key("errors");
    w.begin_array();
    for (const std::string& e : errors) w.string(e);
    w.end_array();
    w.end_object();
    if (!perfbench::write_file(opts.out, w.str())) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opts.out.c_str());
      return 1;
    }
    for (const std::string& e : errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    return errors.empty() ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
