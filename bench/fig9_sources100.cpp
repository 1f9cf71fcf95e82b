// Figure 9 — the Figure 8 comparison scaled to 100 sources (50 long +
// 50 short), the paper's scalability check.
//
// Expected shape (paper): HWatch keeps every short-flow FCT below tens
// of milliseconds while the baselines degrade further than at 50
// sources; goodput/queue/utilization panels match Figure 8's findings.
#include "api/cli.hpp"
#include "fig89_common.hpp"

namespace {

int run() {
  hwatch::bench::run_figure("fig9", 100);
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
