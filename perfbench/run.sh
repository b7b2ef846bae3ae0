#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout (Release,
# into .bench_build/perfbench) and runs it. All arguments are passed
# through, e.g.
#   bash perfbench/run.sh --workload matmul-storage --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is the result
# JSON. Run from the root of the checkout.
set -euo pipefail

build_dir=".bench_build/perfbench"
if [[ ! -f perfbench/CMakeLists.txt ]]; then
  echo "perfbench: run from the root of the checkout" >&2
  exit 2
fi

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
if [[ ! -f "$build_dir/CMakeCache.txt" ]]; then
  cmake -S perfbench -B "$build_dir" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build_dir" --target perfbench json_lint -j 2 >&2

# The checkout is usually not a git repository; --git-dir keeps git
# from searching parent directories.
PERFBENCH_GIT_SHA="$(git --git-dir=.git rev-parse HEAD 2>/dev/null || echo unknown)"
PERFBENCH_SOURCE_SHA="$(find src perfbench -type f -name '*.[ch]*' -print0 |
  sort -z | xargs -0 cat | sha256sum | cut -c1-16)"
export PERFBENCH_GIT_SHA PERFBENCH_SOURCE_SHA
exec "$build_dir/perfbench" --out-dir "$build_dir/out" "$@"
