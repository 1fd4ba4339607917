#!/usr/bin/env bash
# Regenerate all experiment tables with the shipped defaults.
# Usage: scripts/reproduce_figures.sh [output_dir]
set -euo pipefail

out="${1:-results}"
mkdir -p "$out"

echo "== optimal policies under the four churn settings =="
goodwill fig1 --out "$out/fig1_policies.csv"

echo "== memoryless-policy gap vs goodwill-churn amplitude =="
goodwill fig2 --axis a1_amplitude --out "$out/fig2_goodwill_churn.csv"

echo "== memoryless-policy gap vs advertising-churn amplitude =="
goodwill fig2 --axis b1_amplitude --out "$out/fig2_advertising_churn.csv"

echo "== delay sensitivity: formula vs finite difference =="
goodwill sensitivity --out "$out/sensitivity.csv"

echo "== regularized objective convergence table =="
goodwill approx --paths 4000 --out "$out/approx_convergence.csv"

echo "== invariant-measure condition spot checks at the shipped r =="
goodwill feedback-check --a0 -1 --a1 -2 | tee "$out/feedback_check_holds.json"
goodwill feedback-check --a0 -1 --a1 -4 | tee "$out/feedback_check_fails.json"

echo "done; outputs in $out/"
