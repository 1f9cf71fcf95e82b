// Figure 8 — 50 sources (25 long-lived + 25 short-lived) on the 10 Gb/s
// dumbbell: TCP-DropTail vs TCP-RED vs TCP-HWATCH vs DCTCP.
//
// Expected shape (paper): HWatch's short-flow FCT beats DCTCP ~3x,
// TCP-RED ~5x and DropTail ~10x on average; long-flow goodput matches
// DCTCP; the queue stays near the marking threshold; the bottleneck
// remains fully utilized.
#include "api/cli.hpp"
#include "fig89_common.hpp"

namespace {

int run() {
  hwatch::bench::run_figure("fig8", 50);
  return 0;
}

}  // namespace

int main() { return hwatch::api::guarded_main(run); }
