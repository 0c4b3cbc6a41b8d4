#!/bin/sh
# Compare the fixed-point reports with their golden files, byte for byte.
# Run from the repository root: sh testdata/golden/compare.sh
# A new fixed point is one more line here.
set -eu
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

check() {  # check GOLDEN VERIFY-ARGUMENTS...
    golden=$1
    shift
    PYTHONPATH=src python -m natforms verify "$@" --format json > "$out/report.json"
    cmp "$out/report.json" "testdata/golden/$golden"
}

check verify_all.json all
check verify_all_dense_n4.json all --connection testdata/dense_n4_connection.json
check verify_all_mixed_denominator.json all --connection testdata/mixed_denominator_connection.json
check verify_bianchi_seed3_count40.json bianchi --seed 3 --count 40
