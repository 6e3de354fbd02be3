#!/bin/sh
# Writes the twenty-four outputs pinned in pinned-outputs.sha256 into the
# current directory and checks their sha256 digests: the oracle's bits and
# the scan orders (fully adaptive, round-limited, amplified, and amplified
# round-limited transcripts), the dense solver's (the paper's two-label
# table and two sweeps; the second reaches f'-argmins inside
# (0, alpha/2)), the minimum critical matching's (every construction kind;
# see the route of each below), the switch local search's (three-label
# K_14, four-label K_16 and lexicographic K_12) and beta's (beta(3, 3), the
# even k = 6, x = 16 and odd k = 5, x = 12 constructions with the files they
# write, and the cycle and path checks of those files).
# The minimum comes from the branch and bound, or from the table scan once
# the search passes its node budget. The gamma*.json digests exercise:
#   gamma.json      three-label K_14        branch and bound
#   gamma16.json    four-label K_16         branch and bound
#   gamma2.json     two-label K_16          branch and bound
#   gamma316.json   three-label K_16        branch and bound
#   gamma13.json    three-label K_13        branch and bound (size 6 leaves
#                                           one vertex uncovered)
#   gammalex.json   lexicographic K_12      table scan
#   gammalex14.json lexicographic K_14      table scan (the benchmark's
#                                           largest table)
# The arguments are the command that runs cqlab:
#   sh .github/pinned-outputs.sh cqlab
#   sh .github/pinned-outputs.sh python -m cqlab
set -eu
digests="$(cd "$(dirname "$0")" && pwd)/pinned-outputs.sha256"
"$@" simulate greedy --n 4096 --delta 1 --seed 7 --transcript t.csv
"$@" simulate greedy --n 4096 --delta 1 --ell 3 --seed 7 --transcript tb.csv
"$@" simulate greedy --n 4096 --delta 1 --amplify --seed 7 --transcript ta.csv
"$@" simulate greedy --n 4096 --delta 1 --ell 3 --amplify --seed 7 --transcript tab.csv
"$@" bounds table-l2 --output csv > table.csv
"$@" bounds sweep --delta 1 --ells inf,3,2 --eta-from 0.76 --eta-to 0.99 --step 0.01 > sweep.csv
"$@" bounds sweep --delta 1.5 --ells 5,4,inf --eta-from 0.76 --eta-to 0.99 --step 0.01 > sweep2.csv
"$@" gamma verify --construction three --n 14 --brute-force --output json > gamma.json
"$@" gamma verify --construction four --n 16 --brute-force --output json > gamma16.json
"$@" gamma verify --construction two --n 16 --brute-force --output json > gamma2.json
"$@" gamma verify --construction lex --n 12 --brute-force --output json > gammalex.json
"$@" gamma verify --construction three --n 13 --brute-force --output json > gamma13.json
"$@" gamma verify --construction three --n 16 --brute-force --output json > gamma316.json
"$@" gamma verify --construction lex --n 14 --brute-force --output json > gammalex14.json
"$@" gamma verify --construction three --n 14 --local-search --seed 1 --output json > ls14.json
"$@" gamma verify --construction four --n 16 --local-search --seed 2 --output json > ls16.json
"$@" gamma verify --construction lex --n 12 --local-search --output json > lslex.json
"$@" beta brute --k 3 --x 3 --output json > beta.json
"$@" beta build --k 6 --x 16 --out beta616.txt --output json > betabuild616.json
"$@" beta build --k 5 --x 12 --out beta512.txt --output json > betabuild512.json
"$@" beta check beta616.txt --k 6 --output json > betacheck616.json
"$@" beta check beta512.txt --k 5 --output json > betacheck512.json
sha256sum -c "$digests"
