// fitree_e2e: one run of one end-to-end workload (bench/e2e/README.md).
//
//   fitree_e2e --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//              [--data-dir=PATH] [--ladder] [--smoke]
//
// Prints one JSON object on stdout: the answer counts, the metrics with
// their units (end-to-end ones untraced, per-layer ones with --trace=1)
// and diagnostics. bench/e2e/run.py builds and drives this binary.
//
// Exit codes: 0 success, 1 usage or set-up error, 2 a wrong answer or an
// I/O error (the same convention as fitree_bench).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/e2e/e2e.h"
#include "bench/e2e/workloads.h"

namespace {

using fitree::e2e::Params;
using fitree::e2e::Result;

int Usage() {
  std::fprintf(stderr,
               "usage: fitree_e2e --workload=lookup_mem|write_mem|"
               "lookup_disk_cold|serve_disk_mixed [--seed=N] [--seconds=S] "
               "[--trace=0|1] [--data-dir=PATH] [--ladder] [--smoke]\n");
  return 1;
}

void PrintValues(const char* field, const std::vector<Result::Value>& values) {
  std::printf(", \"%s\": {", field);
  for (size_t i = 0; i < values.size(); ++i) {
    const auto& v = values[i];
    // JSON has no NaN/inf; a metric that could not be measured reads null.
    if (std::isfinite(v.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", v.name.c_str(), v.value, v.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", v.name.c_str(), v.unit.c_str());
    }
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  Params p;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* flag) -> const char* {
      const size_t len = std::strlen(flag);
      if (arg.rfind(flag, 0) == 0 && arg.size() > len && arg[len] == '=') {
        return arg.c_str() + len + 1;
      }
      return nullptr;
    };
    if (const char* v = value_of("--workload")) {
      workload = v;
    } else if (const char* v = value_of("--seed")) {
      p.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--seconds")) {
      p.seconds = std::atof(v);
    } else if (const char* v = value_of("--trace")) {
      p.trace = std::atoi(v) != 0;
    } else if (const char* v = value_of("--data-dir")) {
      p.data_dir = v;
    } else if (arg == "--ladder") {
      p.ladder = true;
    } else if (arg == "--smoke") {
      p.smoke = true;
    } else {
      std::fprintf(stderr, "fitree_e2e: unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (p.seconds <= 0) return Usage();
  if (p.data_dir.empty()) p.data_dir = ".";

  Result r;
  if (workload == "lookup_mem") {
    r = fitree::e2e::RunLookupMem(p);
  } else if (workload == "write_mem") {
    r = fitree::e2e::RunWriteMem(p);
  } else if (workload == "lookup_disk_cold") {
    r = fitree::e2e::RunLookupDiskCold(p);
  } else if (workload == "serve_disk_mixed") {
    r = fitree::e2e::RunServeDiskMixed(p);
  } else {
    return Usage();
  }

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
              "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"wrong\": %llu, \"incomplete\": %llu, \"io_errors\": %llu",
              workload.c_str(), static_cast<unsigned long long>(p.seed),
              p.trace ? 1 : 0, r.wrong + r.io_errors == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed()),
              static_cast<unsigned long long>(r.wrong),
              static_cast<unsigned long long>(r.incomplete),
              static_cast<unsigned long long>(r.io_errors));
  PrintValues("metrics", r.metrics);
  PrintValues("diagnostics", r.diagnostics);
  std::printf("}\n");
  return r.wrong + r.io_errors == 0 ? 0 : 2;
}
