#!/bin/sh
# The installed `waveinv` console script on a tiny config: gen-refs, optimize
# with each of the three optimizers, report, surface and manifold, then one
# success-table row per optimizer and no run with status error, and a config
# naming scaled-gd, which is not an optimizer, exits 2.  Then the
# raw objectives, signal and envelope, each into its own output directory:
# gen-refs, optimize with modified-lm, surface and manifold, with one trace
# per reference and the surface file.  Each objective's manifold file holds
# one data row per node of the manifold_grid_n x manifold_grid_n grid.
# Usage: console-pipeline.sh <work directory>
set -e
dir="$1"
mkdir -p "$dir"
printf 'n_refs = 2\nlhs_restarts = 5\neval_budget = 20\ngrid_n = 5\nmanifold_grid_n = 3\n' > "$dir/tiny.cfg"
waveinv --config "$dir/tiny.cfg" --out "$dir/out" gen-refs
for optimizer in modified-lm gauss-newton bfgs; do
  { cat "$dir/tiny.cfg"; echo "optimizer = $optimizer"; } > "$dir/$optimizer.cfg"
  waveinv --config "$dir/$optimizer.cfg" --out "$dir/out" optimize
done
for command in report surface manifold; do
  waveinv --config "$dir/tiny.cfg" --out "$dir/out" "$command"
done
# one success-table row per optimizer, and no run that ended with status
# error (the second column of each runs index)
test "$(grep -c -v -e '^#' -e '^material,' "$dir/out/report/success_table.csv")" -eq 3
for optimizer in modified-lm gauss-newton bfgs; do
  test "$(grep -v '^#' "$dir/out/runs/$optimizer/runs_index.csv" | cut -d, -f2 | grep -c -x error)" -eq 0
done
{ cat "$dir/tiny.cfg"; echo "optimizer = scaled-gd"; } > "$dir/scaled-gd.cfg"
status=0
waveinv --config "$dir/scaled-gd.cfg" --out "$dir/out" optimize || status=$?
test "$status" -eq 2
# manifold_grid_n = 3: 9 data rows after the comments and the header
test "$(grep -c -v -e '^#' -e '^E,' "$dir/out/manifold/manifold_autocorr-phase.csv")" -eq 9
for objective in signal envelope; do
  { cat "$dir/tiny.cfg"; echo "objective = $objective"; } > "$dir/$objective.cfg"
  for command in gen-refs optimize surface manifold; do
    waveinv --config "$dir/$objective.cfg" --out "$dir/out-$objective" "$command"
  done
  test "$(ls "$dir/out-$objective/runs/modified-lm"/trace_*.csv | wc -l)" -eq 2
  test -s "$dir/out-$objective/surface/surface_$objective.csv"
  test "$(grep -c -v -e '^#' -e '^E,' "$dir/out-$objective/manifold/manifold_$objective.csv")" -eq 9
done
