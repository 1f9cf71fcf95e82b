// The shared main() of the benches and examples.
#pragma once

namespace hwatch::api {

/// Runs `body` and returns its exit status.  A rejected input — a bad
/// HWATCH_* variable or config field, which the library reports as
/// std::invalid_argument naming it, from a sweep thread too (SweepRunner
/// rethrows on the calling thread) — prints "error: <what>" on stderr
/// and returns 2 instead of terminating the process.
int guarded_main(int (*body)());

}  // namespace hwatch::api
