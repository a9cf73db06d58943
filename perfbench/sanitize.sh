#!/usr/bin/env bash
# Sanitizer pass over the benchmark: builds the library and perfbench with
# AddressSanitizer + UndefinedBehaviorSanitizer in their own build tree,
# runs the check self-test, then every workload at small scale, untraced
# and traced.  Any sanitizer report aborts with a non-zero exit.
#
#   bash perfbench/sanitize.sh        (from the root of a checkout)
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build/perfbench-asan"
flags="-O1 -g -fno-omit-frame-pointer -fsanitize=address,undefined"
flags="$flags -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$flags" >&2
jobs=$(nproc)
if [ "$jobs" -gt 4 ]; then jobs=4; fi
cmake --build "$build" --target perfbench -j "$jobs" >&2

export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

"$build/perfbench" --selftest
for w in wan-sessions san-rpc wan-bulk; do
  for t in 0 1; do
    echo "== $w --trace $t"
    "$build/perfbench" --workload "$w" --seed 1 --seconds 1 --trace "$t" \
      --small | tail -n 1 | cut -c 1-120
  done
done
echo "sanitize: ok"
