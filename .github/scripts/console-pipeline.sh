#!/bin/sh
# The installed `waveinv` console script on a tiny config: gen-refs, optimize
# with each of the three optimizers, report, surface and manifold, then one
# success-table row per optimizer and no run with status error, and a config
# naming scaled-gd, which is not an optimizer, exits 2.  Then the
# raw objectives, signal and envelope, each into its own output directory:
# gen-refs, optimize with modified-lm, surface and manifold, with one trace
# per reference and the surface file.  Each objective's manifold file holds
# one data row per node of the manifold_grid_n x manifold_grid_n grid.
# Last, gen-refs for PA6, the one shipped prior with mass at nu >= 0.5,
# into its own directory, with every nu in refs/index.csv below 0.5 (the
# prior is truncated there), and a priors file whose nu marginal has no
# mass below 0.5 exits 2.
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
printf 'material = PA6\nn_refs = 20\nlhs_restarts = 5\n' > "$dir/pa6.cfg"
waveinv --config "$dir/pa6.cfg" --out "$dir/out-pa6" gen-refs
grep -v -e '^#' -e '^ref_id,' "$dir/out-pa6/refs/index.csv" | awk -F, '{ n++ } $3 >= 0.5 { bad++ } END { exit !(n == 20 && bad == 0) }'
# PEEK's built-in prior with nu of mean 1 and standard deviation 0.01
printf 'material,parameter,alpha,theta\nPEEK,rho,1.3145e2,1.0653e-2\nPEEK,E,1.063e2,3.7214e-2\nPEEK,nu,1e4,1e-4\nPEEK,G,4.7092e2,2.9832e-3\n' > "$dir/no-mass-priors.csv"
echo "priors_file = $dir/no-mass-priors.csv" > "$dir/no-mass.cfg"
status=0
waveinv --config "$dir/no-mass.cfg" --out "$dir/out-no-mass" gen-refs || status=$?
test "$status" -eq 2
