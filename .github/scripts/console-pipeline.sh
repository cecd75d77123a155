#!/bin/sh
# The installed `waveinv` console script on a tiny config: gen-refs, optimize
# with each of the four optimizers, report, surface and manifold, then one
# success-table row per optimizer.  Then the raw objectives, signal and
# envelope, each into its own output directory: gen-refs, optimize with
# modified-lm and surface, with one trace per reference and the surface file.
# Usage: console-pipeline.sh <work directory>
set -e
dir="$1"
mkdir -p "$dir"
printf 'n_refs = 2\nlhs_restarts = 5\neval_budget = 20\ngrid_n = 5\nmanifold_grid_n = 3\n' > "$dir/tiny.cfg"
waveinv --config "$dir/tiny.cfg" --out "$dir/out" gen-refs
for optimizer in modified-lm gauss-newton scaled-gd bfgs; do
  { cat "$dir/tiny.cfg"; echo "optimizer = $optimizer"; } > "$dir/$optimizer.cfg"
  waveinv --config "$dir/$optimizer.cfg" --out "$dir/out" optimize
done
for command in report surface manifold; do
  waveinv --config "$dir/tiny.cfg" --out "$dir/out" "$command"
done
# one success-table row per optimizer
test "$(grep -c -v -e '^#' -e '^material,' "$dir/out/report/success_table.csv")" -eq 4
for objective in signal envelope; do
  { cat "$dir/tiny.cfg"; echo "objective = $objective"; } > "$dir/$objective.cfg"
  for command in gen-refs optimize surface; do
    waveinv --config "$dir/$objective.cfg" --out "$dir/out-$objective" "$command"
  done
  test "$(ls "$dir/out-$objective/runs/modified-lm"/trace_*.csv | wc -l)" -eq 2
  test -s "$dir/out-$objective/surface/surface_$objective.csv"
done
